//! The three statistics the evaluation reports beyond plain counts.
//!
//! Figure 6 (§5.2) is the Pearson correlation between the clustering
//! coefficient `Cc` of each mapping and the network performance measured
//! at each simulation point; the robustness study summarises its
//! OP/random ratios by their mean and population standard deviation.
//! Each returns `None` where the statistic is undefined.

/// Arithmetic mean of `xs`; `None` if `xs` is empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation of `xs` (divides by `n`, not `n - 1`);
/// `None` if `xs` is empty.
pub fn stddev(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    let variance = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    Some(variance.sqrt())
}

/// Pearson product-moment correlation coefficient of paired samples.
///
/// `None` for empty input, mismatched lengths, or when either series has
/// zero variance (correlation undefined).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() {
        return None;
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx.sqrt() * syy.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-10, "{a} != {b}");
    }

    #[test]
    fn pearson_perfect_positive() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert_close(pearson(&xs, &ys).unwrap(), 1.0);
    }

    #[test]
    fn pearson_perfect_negative() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [3.0, 2.0, 1.0];
        assert_close(pearson(&xs, &ys).unwrap(), -1.0);
    }

    #[test]
    fn pearson_uncorrelated() {
        // Symmetric cross pattern has exactly zero correlation.
        let xs = [1.0, 1.0, -1.0, -1.0];
        let ys = [1.0, -1.0, 1.0, -1.0];
        assert_close(pearson(&xs, &ys).unwrap(), 0.0);
    }

    #[test]
    fn pearson_known_value() {
        // Hand-computed small example.
        let xs = [1.0, 2.0, 3.0, 5.0];
        let ys = [1.0, 4.0, 3.0, 6.0];
        // mx = 2.75, my = 3.5
        // sxy = (−1.75)(−2.5)+(−0.75)(0.5)+(0.25)(−0.5)+(2.25)(2.5) = 9.5
        // sxx = 3.0625+0.5625+0.0625+5.0625 = 8.75
        // syy = 6.25+0.25+0.25+6.25 = 13
        let expect = 9.5 / (8.75f64.sqrt() * 13f64.sqrt());
        assert_close(pearson(&xs, &ys).unwrap(), expect);
    }

    #[test]
    fn pearson_constant_is_undefined() {
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), None);
    }

    #[test]
    fn pearson_mismatch_is_undefined() {
        assert_eq!(pearson(&[1.0], &[1.0, 2.0]), None);
    }

    #[test]
    fn empty_input_is_undefined() {
        assert_eq!(pearson(&[], &[]), None);
        assert_eq!(mean(&[]), None);
        assert_eq!(stddev(&[]), None);
    }

    #[test]
    fn mean_basic() {
        assert_close(mean(&[1.0, 2.0, 3.0]).unwrap(), 2.0);
        assert_close(mean(&[7.5]).unwrap(), 7.5);
    }

    #[test]
    fn stddev_is_the_population_one() {
        // Population variance of [2, 4, 4, 4, 5, 5, 7, 9] is 4.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_close(stddev(&xs).unwrap(), 2.0);
        assert_close(stddev(&[3.0, 3.0, 3.0]).unwrap(), 0.0);
    }
}
