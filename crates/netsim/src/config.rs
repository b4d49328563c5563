//! Simulator configuration.

use crate::congestion::CongestionMode;

/// PFC XOFF threshold: an input VC asserts pause when its buffer
/// occupancy reaches this many flits ([`CongestionMode::Pfc`] only).
pub const PFC_XOFF: usize = 3;

/// PFC XON threshold: a paused VC releases pause when its occupancy
/// drains to this many flits or fewer (below [`PFC_XOFF`]: hysteresis).
pub const PFC_XON: usize = 1;

/// ECN marking threshold: a flit enqueued into a switch input buffer
/// whose occupancy then reaches this many flits marks its message (ECN
/// modes only; at most [`PFC_XOFF`]).
pub const ECN_THRESHOLD: usize = 2;

// Hysteresis, and `validate`'s one buffer check covering every threshold.
const _: () = assert!(PFC_XON < PFC_XOFF && ECN_THRESHOLD <= PFC_XOFF);

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Message length in flits (paper-scale default: 16).
    pub msg_len: usize,
    /// Input-buffer capacity per channel, in flits.
    pub buffer_flits: usize,
    /// Offered load: flits per workstation per cycle. A message is
    /// generated per host per cycle with probability
    /// `injection_rate / msg_len`.
    pub injection_rate: f64,
    /// Warm-up cycles excluded from measurement.
    pub warmup_cycles: u64,
    /// Measured cycles.
    pub measure_cycles: u64,
    /// RNG seed (message generation and destination sampling).
    pub seed: u64,
    /// Extension (future work): fraction of traffic sent outside the own
    /// logical cluster (0.0 in all paper experiments).
    pub intercluster_fraction: f64,
    /// Cycles without any flit movement (while messages are in flight)
    /// after which the run is declared deadlocked.
    pub deadlock_threshold: u64,
    /// Virtual channels per physical channel (1 = the paper's setting:
    /// plain wormhole on the supplied deadlock-free router).
    pub virtual_channels: usize,
    /// Duato's fully adaptive protocol: with `virtual_channels >= 2`,
    /// VCs 1.. may take any topological minimal path and VC 0 is the
    /// escape channel restricted to the supplied router. Ignored when
    /// `virtual_channels < 2`.
    pub fully_adaptive: bool,
    /// Congestion-response regime (marking, pausing, source windows).
    /// `Off` reproduces the paper's open-loop behaviour bit for bit.
    pub congestion: CongestionMode,
    /// Adaptive misrouting: a header blocked on every minimal hop may
    /// take a non-minimal hop that stays legal under the supplied
    /// router's predicate (up*/down* never goes up after down, so such
    /// detours preserve deadlock freedom). Applies to the base router
    /// only; ignored under `fully_adaptive`.
    pub adaptive_misroute: bool,
    /// Per-message budget of misroute hops (bounds detour length and
    /// rules out livelock).
    pub max_misroutes: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            msg_len: 16,
            buffer_flits: 4,
            injection_rate: 0.1,
            warmup_cycles: 2_000,
            measure_cycles: 8_000,
            seed: 0xC0FFEE,
            intercluster_fraction: 0.0,
            deadlock_threshold: 20_000,
            virtual_channels: 1,
            fully_adaptive: false,
            congestion: CongestionMode::default(),
            adaptive_misroute: false,
            max_misroutes: 4,
        }
    }
}

impl SimConfig {
    /// This configuration with a different offered load.
    pub fn with_rate(mut self, injection_rate: f64) -> Self {
        self.injection_rate = injection_rate;
        self
    }

    /// This configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validate the configuration.
    ///
    /// # Errors
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.msg_len < 2 {
            return Err("msg_len must be at least 2 (header + tail)");
        }
        if self.buffer_flits == 0 {
            return Err("buffer_flits must be positive");
        }
        if !(0.0..=f64::from(u16::MAX)).contains(&self.injection_rate) {
            return Err("injection_rate must be non-negative and finite");
        }
        if !(0.0..=1.0).contains(&self.intercluster_fraction) {
            return Err("intercluster_fraction must be in [0, 1]");
        }
        if self.measure_cycles == 0 {
            return Err("measure_cycles must be positive");
        }
        if self.deadlock_threshold == 0 {
            return Err("deadlock_threshold must be positive");
        }
        if self.virtual_channels == 0 {
            return Err("virtual_channels must be positive");
        }
        if self.virtual_channels > 16 {
            return Err("virtual_channels implausibly large (max 16)");
        }
        // Every threshold is at most PFC_XOFF, so a buffer that can reach
        // the pause threshold can reach the marking threshold too.
        if self.congestion != CongestionMode::Off && self.buffer_flits < PFC_XOFF {
            return Err("a congestion regime needs buffer_flits >= PFC_XOFF");
        }
        if self.adaptive_misroute && self.max_misroutes == 0 {
            return Err("adaptive_misroute needs max_misroutes >= 1");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert_eq!(SimConfig::default().validate(), Ok(()));
    }

    #[test]
    fn builders_set_fields() {
        let c = SimConfig::default().with_rate(0.4).with_seed(9);
        assert_eq!(c.injection_rate, 0.4);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(SimConfig {
            msg_len: 1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            buffer_flits: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            injection_rate: -0.1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            intercluster_fraction: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            measure_cycles: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            virtual_channels: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            virtual_channels: 99,
            ..Default::default()
        }
        .validate()
        .is_err());
        // A zero threshold would fire the watchdog in the first cycle in
        // which nothing happens to move, on a perfectly healthy network.
        let lying_watchdog = SimConfig {
            deadlock_threshold: 0,
            ..Default::default()
        };
        assert_eq!(
            lying_watchdog.validate(),
            Err("deadlock_threshold must be positive")
        );
    }

    #[test]
    fn congestion_thresholds_validated() {
        // A congestion regime needs a buffer that reaches every
        // threshold; open loop reads none of them.
        for mode in CongestionMode::ALL {
            let fits = SimConfig {
                congestion: mode,
                buffer_flits: PFC_XOFF,
                ..Default::default()
            };
            assert_eq!(fits.validate(), Ok(()), "{mode}");
            let short = SimConfig {
                buffer_flits: PFC_XOFF - 1,
                ..fits
            };
            if mode == CongestionMode::Off {
                assert_eq!(short.validate(), Ok(()));
            } else {
                assert_eq!(
                    short.validate(),
                    Err("a congestion regime needs buffer_flits >= PFC_XOFF"),
                    "{mode}"
                );
            }
        }
        // Misrouting needs a positive hop budget.
        assert!(SimConfig {
            adaptive_misroute: true,
            max_misroutes: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert_eq!(
            SimConfig {
                adaptive_misroute: true,
                ..Default::default()
            }
            .validate(),
            Ok(())
        );
    }

    #[test]
    fn vc_config_valid() {
        let c = SimConfig {
            virtual_channels: 3,
            fully_adaptive: true,
            ..Default::default()
        };
        assert_eq!(c.validate(), Ok(()));
    }
}
