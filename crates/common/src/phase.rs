//! The CALC checkpointing phase vocabulary (§2.2 of the paper).
//!
//! A system running CALC cycles through five phases. Each transition is
//! marked by a token atomically appended to the commit log, so it can
//! always be unambiguously determined which phase the system was in when a
//! particular transaction committed. The enum lives in `calc-common` so
//! that the commit log (in `calc-txn`) can record transition tokens without
//! depending on the checkpointing crate.

/// One of CALC's five phases.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum Phase {
    /// No checkpoint is being taken. Records store only live versions.
    #[default]
    Rest = 0,
    /// Immediately precedes the virtual point of consistency. Writers copy
    /// live→stable before updating (the copy is provisional: the commit
    /// hook keeps or discards it depending on the commit phase).
    Prepare = 1,
    /// Immediately follows the virtual point of consistency, before capture
    /// starts. Writers copy live→stable and mark it available.
    Resolve = 2,
    /// The background thread is recording the checkpoint to disk, erasing
    /// stable versions as it goes.
    Capture = 3,
    /// Capture finished; write behaviour reverts to rest semantics while
    /// capture-phase transactions drain.
    Complete = 4,
}

impl Phase {
    /// All phases, in cycle order.
    pub const ALL: [Phase; 5] = [
        Phase::Rest,
        Phase::Prepare,
        Phase::Resolve,
        Phase::Capture,
        Phase::Complete,
    ];

    /// Number of phases.
    pub const COUNT: usize = 5;

    /// Dense index for per-phase counters.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Phase::index`]. Panics on out-of-range input.
    #[inline]
    pub fn from_index(i: usize) -> Phase {
        Self::ALL[i]
    }

    /// The phase that follows this one in the checkpoint cycle.
    #[inline]
    pub fn next(self) -> Phase {
        Self::ALL[(self.index() + 1) % Self::COUNT]
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Phase::Rest => "REST",
            Phase::Prepare => "PREPARE",
            Phase::Resolve => "RESOLVE",
            Phase::Capture => "CAPTURE",
            Phase::Complete => "COMPLETE",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_index(p.index()), p);
        }
    }

    #[test]
    fn cycle_order() {
        assert_eq!(Phase::Rest.next(), Phase::Prepare);
        assert_eq!(Phase::Prepare.next(), Phase::Resolve);
        assert_eq!(Phase::Resolve.next(), Phase::Capture);
        assert_eq!(Phase::Capture.next(), Phase::Complete);
        assert_eq!(Phase::Complete.next(), Phase::Rest);
    }

    #[test]
    fn display_names() {
        assert_eq!(Phase::Resolve.to_string(), "RESOLVE");
    }
}
