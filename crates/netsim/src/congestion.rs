//! End-to-end congestion control for the simulator.
//!
//! The paper's evaluation offers load open-loop: every workstation keeps
//! injecting regardless of network state, so past saturation the source
//! queues diverge and the accepted-traffic curve flattens. Real
//! interconnects close the loop — link-level flow control (PFC) pauses
//! upstream senders before buffers overflow, and end-to-end schemes (ECN
//! echo driving an AIMD or DCTCP window) throttle sources that observe
//! congestion. This module supplies the pluggable source-side half of that
//! loop: a [`CongestionControl`] decides, per source, how many messages may
//! be in flight, reacting to the ECN marks echoed back on delivery.
//!
//! The switch-side half (queue-depth ECN marking, XOFF/XON pause state)
//! lives in the engine; [`CongestionMode`] selects which pieces are active
//! so a run can be compared across regimes with everything else identical.

use crate::config::SimConfig;

/// Which congestion-response regime a run simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CongestionMode {
    /// Open loop (the paper's setting): no marking, no pausing, no window.
    #[default]
    Off,
    /// Link-level only: per-input-VC XOFF/XON pause with hysteresis
    /// ([`PFC_XOFF`](crate::config::PFC_XOFF) /
    /// [`PFC_XON`](crate::config::PFC_XON)); sources stay open-loop.
    Pfc,
    /// ECN marking at [`ECN_THRESHOLD`](crate::config::ECN_THRESHOLD)
    /// echoed to the source, driving an [`Aimd`] window.
    EcnAimd,
    /// ECN marking echoed to the source, driving a [`Dctcp`]
    /// ECN-fraction window.
    EcnDctcp,
}

impl CongestionMode {
    /// Every mode, in CLI/report order.
    pub const ALL: [CongestionMode; 4] = [
        CongestionMode::Off,
        CongestionMode::Pfc,
        CongestionMode::EcnAimd,
        CongestionMode::EcnDctcp,
    ];

    /// Whether switches mark messages that meet congested queues.
    pub fn uses_ecn(self) -> bool {
        matches!(self, CongestionMode::EcnAimd | CongestionMode::EcnDctcp)
    }

    /// Whether input VCs assert XOFF/XON pause.
    pub fn uses_pfc(self) -> bool {
        self == CongestionMode::Pfc
    }

    /// Whether sources gate injection on a congestion window.
    pub fn uses_window(self) -> bool {
        self.uses_ecn()
    }

    /// Build one source's window controller; `None` for the modes whose
    /// sources stay open-loop (exactly those without
    /// [`CongestionMode::uses_window`]).
    pub fn controller(self) -> Option<Box<dyn CongestionControl>> {
        match self {
            CongestionMode::Off | CongestionMode::Pfc => None,
            CongestionMode::EcnAimd => Some(Box::new(Aimd::new())),
            CongestionMode::EcnDctcp => Some(Box::new(Dctcp::new())),
        }
    }

    /// Parse a CLI spelling (`off`, `pfc`, `ecn-aimd`, `ecn-dctcp`).
    ///
    /// # Errors
    /// Returns the unrecognized input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(CongestionMode::Off),
            "pfc" => Ok(CongestionMode::Pfc),
            "ecn-aimd" => Ok(CongestionMode::EcnAimd),
            "ecn-dctcp" => Ok(CongestionMode::EcnDctcp),
            other => Err(format!(
                "unknown congestion mode '{other}' (expected off|pfc|ecn-aimd|ecn-dctcp)"
            )),
        }
    }
}

impl std::fmt::Display for CongestionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CongestionMode::Off => "off",
            CongestionMode::Pfc => "pfc",
            CongestionMode::EcnAimd => "ecn-aimd",
            CongestionMode::EcnDctcp => "ecn-dctcp",
        })
    }
}

impl std::str::FromStr for CongestionMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        CongestionMode::parse(s)
    }
}

/// Source-side congestion controller: a window of messages a workstation
/// may have in flight (claimed injection VC, tail not yet delivered).
///
/// The engine calls [`CongestionControl::on_ack`] once per delivered
/// message with the message's ECN mark — the simulator's instant-ack
/// simplification of the real echo path (the receiver's ACK carries the CE
/// bit back; here delivery and echo coincide, which only shortens the
/// control loop by one reverse traversal). Implementations must be
/// deterministic: the window after a fixed ack sequence is a pure function
/// of that sequence, so fixed-seed runs stay bit-identical.
pub trait CongestionControl: std::fmt::Debug + Send {
    /// One message delivered; `marked` is its echoed ECN bit.
    fn on_ack(&mut self, marked: bool);

    /// Messages this source may currently have in flight (≥ 1).
    fn window(&self) -> u32;
}

/// Messages in flight a fresh window-based controller allows.
const INITIAL_WINDOW: f64 = 8.0;
/// Ceiling on any controller's window (messages in flight per source).
const MAX_WINDOW: f64 = 256.0;

/// Additive-increase/multiplicative-decrease window.
///
/// A clean ack grows the window by `1/w` (one message per window round, the
/// classic congestion-avoidance slope); a marked ack halves it. The window
/// never drops below one message.
#[derive(Debug, Clone, Copy)]
pub struct Aimd {
    w: f64,
}

impl Aimd {
    /// A fresh AIMD controller at the initial window.
    pub fn new() -> Self {
        Self { w: INITIAL_WINDOW }
    }
}

impl Default for Aimd {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Aimd {
    fn on_ack(&mut self, marked: bool) {
        if marked {
            self.w = (self.w / 2.0).max(1.0);
        } else {
            self.w = (self.w + 1.0 / self.w).min(MAX_WINDOW);
        }
    }

    fn window(&self) -> u32 {
        self.w as u32
    }
}

/// DCTCP's EWMA gain for the congestion-fraction estimate.
const DCTCP_G: f64 = 1.0 / 16.0;

/// DCTCP-style controller: the cut is proportional to the *fraction* of
/// marked acks, not their mere presence.
///
/// Acks are accumulated over one window round; at the end of a round the
/// marked fraction `F` updates `α ← (1 − g)α + gF`, and the window becomes
/// `w(1 − α/2)` if any ack was marked (else `w + 1`). Mild congestion thus
/// trims the window gently where AIMD would halve it.
#[derive(Debug, Clone, Copy)]
pub struct Dctcp {
    w: f64,
    alpha: f64,
    acked: u32,
    marked: u32,
}

impl Dctcp {
    /// A fresh DCTCP controller at the initial window.
    pub fn new() -> Self {
        Self {
            w: INITIAL_WINDOW,
            alpha: 0.0,
            acked: 0,
            marked: 0,
        }
    }

    /// Current congestion-fraction estimate α ∈ [0, 1].
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Default for Dctcp {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Dctcp {
    fn on_ack(&mut self, marked: bool) {
        self.acked += 1;
        self.marked += u32::from(marked);
        if f64::from(self.acked) >= self.w.max(1.0) {
            let f = f64::from(self.marked) / f64::from(self.acked);
            self.alpha = (1.0 - DCTCP_G) * self.alpha + DCTCP_G * f;
            if self.marked > 0 {
                self.w = (self.w * (1.0 - self.alpha / 2.0)).max(1.0);
            } else {
                self.w = (self.w + 1.0).min(MAX_WINDOW);
            }
            self.acked = 0;
            self.marked = 0;
        }
    }

    fn window(&self) -> u32 {
        self.w as u32
    }
}

/// One point of the congestion-regime comparison axis: a regime is a
/// [`CongestionMode`] plus the adaptive-misroute switch (the paper
/// comparison is re-run once per regime with everything else fixed).
pub const REGIMES: [(&str, CongestionMode, bool); 5] = [
    ("off", CongestionMode::Off, false),
    ("pfc", CongestionMode::Pfc, false),
    ("ecn-aimd", CongestionMode::EcnAimd, false),
    ("ecn-dctcp", CongestionMode::EcnDctcp, false),
    ("adaptive", CongestionMode::Off, true),
];

/// Expand `base` into one [`SimConfig`] per regime of [`REGIMES`], in
/// order — the sweep axis for the OP-vs-random comparison under
/// congestion.
pub fn regime_configs(base: SimConfig) -> Vec<(&'static str, SimConfig)> {
    REGIMES
        .iter()
        .map(|&(name, mode, misroute)| {
            let mut cfg = base;
            cfg.congestion = mode;
            cfg.adaptive_misroute = misroute;
            (name, cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parse_round_trips() {
        for mode in CongestionMode::ALL {
            assert_eq!(CongestionMode::parse(&mode.to_string()), Ok(mode));
            assert_eq!(mode.to_string().parse::<CongestionMode>(), Ok(mode));
        }
        assert!(CongestionMode::parse("dcqcn").is_err());
    }

    #[test]
    fn mode_feature_flags() {
        assert!(!CongestionMode::Off.uses_ecn());
        assert!(!CongestionMode::Off.uses_pfc());
        assert!(!CongestionMode::Off.uses_window());
        assert!(CongestionMode::Pfc.uses_pfc());
        assert!(!CongestionMode::Pfc.uses_window());
        for m in [CongestionMode::EcnAimd, CongestionMode::EcnDctcp] {
            assert!(m.uses_ecn());
            assert!(m.uses_window());
            assert!(!m.uses_pfc());
        }
        // A controller exists exactly where a window is used.
        for m in CongestionMode::ALL {
            assert_eq!(m.controller().is_some(), m.uses_window(), "{m}");
        }
    }

    #[test]
    fn aimd_halves_on_mark_and_grows_on_clean() {
        let mut a = Aimd::new();
        let w0 = a.window();
        a.on_ack(true);
        assert_eq!(a.window(), w0 / 2);
        let w1 = a.w;
        for _ in 0..1000 {
            a.on_ack(false);
        }
        assert!(a.w > w1, "clean acks must grow the window");
        // Persistent marks floor at one message.
        for _ in 0..20 {
            a.on_ack(true);
        }
        assert_eq!(a.window(), 1);
        // Growth is capped.
        for _ in 0..2_000_000 {
            a.on_ack(false);
        }
        assert!(f64::from(a.window()) <= MAX_WINDOW);
    }

    #[test]
    fn dctcp_cut_scales_with_mark_fraction() {
        // Fully marked rounds converge α → 1 and cut toward w/2 per round;
        // a lightly marked stream cuts much less.
        let mut heavy = Dctcp::new();
        for _ in 0..200 {
            heavy.on_ack(true);
        }
        let mut light = Dctcp::new();
        for i in 0..200 {
            light.on_ack(i % 16 == 0);
        }
        assert!(heavy.alpha() > 0.5, "α = {}", heavy.alpha());
        assert!(light.alpha() < 0.3, "α = {}", light.alpha());
        assert!(heavy.window() <= light.window());
        assert!(heavy.window() >= 1);
        // Clean rounds grow additively.
        let mut clean = Dctcp::new();
        let w0 = clean.w;
        for _ in 0..100 {
            clean.on_ack(false);
        }
        assert!(clean.w > w0);
    }

    #[test]
    fn controllers_are_deterministic() {
        let acks = [false, true, false, false, true, false, true, true, false];
        for mode in [CongestionMode::EcnAimd, CongestionMode::EcnDctcp] {
            let mut a = mode.controller().unwrap();
            let mut b = mode.controller().unwrap();
            for &m in &acks {
                a.on_ack(m);
                b.on_ack(m);
            }
            assert_eq!(a.window(), b.window(), "{mode}");
        }
    }

    #[test]
    fn regime_axis_covers_every_mode_plus_adaptive() {
        let configs = regime_configs(SimConfig::default());
        assert_eq!(configs.len(), REGIMES.len());
        for mode in CongestionMode::ALL {
            assert!(configs.iter().any(|(_, c)| c.congestion == mode));
        }
        let (name, adaptive) = configs.last().map(|(n, c)| (*n, *c)).unwrap();
        assert_eq!(name, "adaptive");
        assert!(adaptive.adaptive_misroute);
        assert_eq!(adaptive.congestion, CongestionMode::Off);
        // Everything but the regime knobs stays at the base config.
        for (_, c) in &configs {
            assert_eq!(c.injection_rate, SimConfig::default().injection_rate);
            assert_eq!(c.seed, SimConfig::default().seed);
        }
    }
}
