//! The one string-parts hash of the workspace: chaos draws, retry
//! jitter and the sweeps' memo keys all hang on its values.

use std::hash::{Hash, Hasher};

/// SipHash (std's `DefaultHasher` with its fixed zero keys) of `parts`
/// in order. `str`'s `Hash` closes each part with a terminator, so
/// `["ab", "c"]` and `["a", "bc"]` hash differently.
pub fn sip_parts(parts: &[&str]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for p in parts {
        p.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// std leaves `DefaultHasher`'s algorithm unspecified. A toolchain
    /// that changed it would shift every chaos draw, every retry jitter
    /// and every memo key at once; this is the test that would say so.
    #[test]
    fn value_is_pinned() {
        assert_eq!(sip_parts(&["sticky", "1", "cell-x", "compile"]), 0xdeb9_913d_49bb_a852);
        assert_ne!(sip_parts(&["ab", "c"]), sip_parts(&["a", "bc"]));
    }
}
