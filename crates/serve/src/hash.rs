//! Content addressing for compile artifacts.
//!
//! The FNV-1a hashing itself lives in [`roccc::hash`] so that the serve
//! cache and the `roccc-explore` design-space-exploration memo share one
//! key definition and can never disagree about whether two
//! configurations alias; this module re-exports it under the historical
//! path and keeps the behavioral tests.

pub use roccc::hash::{cache_key, Fnv64};

#[cfg(test)]
mod tests {
    use super::*;
    use roccc::{CompileOptions, UnrollStrategy};

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn identical_inputs_produce_equal_keys() {
        let src =
            "void f(int A[4], int B[4]) { int i;\n  for (i = 0; i < 4; i++) { B[i] = A[i]; } }";
        let a = cache_key(src, "f", &CompileOptions::default());
        let b = cache_key(src, "f", &CompileOptions::default());
        assert_eq!(a, b);
        // Same options built by hand, not via Default.
        let opts = CompileOptions {
            target_period_ns: 7.0,
            unroll: UnrollStrategy::Keep,
            stripmine: None,
            optimize: true,
            narrow: true,
            range_narrow: false,
            fuse: false,
            verify: roccc::VerifyLevel::default(),
            pipeline_ii: None,
            prove: false,
            verify_families: None,
        };
        assert_eq!(a, cache_key(src, "f", &opts));
    }

    #[test]
    fn differing_options_produce_different_keys() {
        let src =
            "void f(int A[8], int B[8]) { int i;\n  for (i = 0; i < 8; i++) { B[i] = A[i] * 3; } }";
        let base = CompileOptions::default();
        let unrolled = CompileOptions {
            unroll: UnrollStrategy::Partial(4),
            ..base.clone()
        };
        // The ISSUE's canonical pair: unroll factor 1 (Keep) vs 4.
        assert_ne!(cache_key(src, "f", &base), cache_key(src, "f", &unrolled));

        // Every option axis must also separate keys: each table entry
        // set to its example value.
        for opt in roccc::options::OPTIONS {
            let mut variant = base.clone();
            variant.set(opt.key, Some(opt.example)).unwrap();
            assert_ne!(
                cache_key(src, "f", &base),
                cache_key(src, "f", &variant),
                "{}: {variant:?}",
                opt.key
            );
        }
    }

    #[test]
    fn source_and_function_separate_keys() {
        let opts = CompileOptions::default();
        assert_ne!(
            cache_key("void f() {}", "f", &opts),
            cache_key("void g() {}", "g", &opts)
        );
        // Length-prefixing: shifting a byte across the field boundary
        // must change the key.
        assert_ne!(cache_key("ab", "c", &opts), cache_key("a", "bc", &opts));
    }

    #[test]
    fn canonical_bytes_distinguish_partial_factors() {
        let k1 = CompileOptions {
            unroll: UnrollStrategy::Partial(1),
            ..CompileOptions::default()
        };
        let k2 = CompileOptions {
            unroll: UnrollStrategy::Partial(4),
            ..CompileOptions::default()
        };
        assert_ne!(k1.canonical_bytes(), k2.canonical_bytes());
        assert_eq!(k1.canonical_bytes(), k1.canonical_bytes());
    }

    #[test]
    fn canonical_bytes_distinguish_strip_widths() {
        // DSE memoization correctness: strip-mined configurations must
        // never alias the un-mined base or each other.
        let base = CompileOptions::default();
        let s4 = CompileOptions {
            stripmine: Some(4),
            ..base.clone()
        };
        let s8 = CompileOptions {
            stripmine: Some(8),
            ..base.clone()
        };
        assert_ne!(base.canonical_bytes(), s4.canonical_bytes());
        assert_ne!(s4.canonical_bytes(), s8.canonical_bytes());
        // And `stripmine: None` must not alias `Some(0)`-style encodings
        // of other fields: the tag byte keeps boundaries unambiguous.
        assert_eq!(
            base.canonical_bytes(),
            CompileOptions::default().canonical_bytes()
        );
    }
}
