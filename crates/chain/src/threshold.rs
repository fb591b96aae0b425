//! A name kept for one caller: every block is sealed by its proposer's
//! own key (DESIGN.md §5f), and t-of-n committee signatures live whole
//! in `pds2-gov` (DESIGN.md §5i).
//!
//! `benchmark/src/adapter.rs:19,69-71` names [`SigMode`] to print its
//! `runtime.sig_mode` fingerprint, and the benchmark is not edited
//! alongside library changes; ROADMAP item 8(a) deletes the type along
//! with the other `from_env` shims.

#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SigMode {
    #[default]
    Single,
    Threshold,
}

impl SigMode {
    pub fn from_env() -> SigMode {
        SigMode::Single
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sig_mode_from_env_defaults_to_single() {
        assert_eq!(SigMode::from_env(), SigMode::Single);
        assert_eq!(SigMode::default(), SigMode::Single);
    }
}
