//! Runtime invariant sanitizer — the switchboard.
//!
//! The `sanitize-invariants` cargo feature compiles post-condition audits
//! into the geometry/index/graph/query crates: checked constructors here,
//! R\*-tree structural audits in `conn-index`, adjacency-tangency and
//! label-admissibility audits in `conn-vgraph`, and cover checks on every
//! CONN/COkNN answer in `conn-core`. This module owns the process-wide
//! switch those audits consult, so a sanitized build can still run the
//! same binary with audits off, then on (`tests/sanitize_invariants.rs`
//! pins the answers byte-identical either way).
//!
//! Without the feature, [`enabled`] is a `const false` and every audit call
//! site compiles away; [`set_enabled`] is a no-op so callers need no cfg.
//!
//! An audit failure is a **bug in this codebase**, never user error, so
//! violations panic (via [`violation`]) with a `sanitize-invariants:` prefix
//! rather than returning a `Result` the query path would have to thread.

#[cfg(feature = "sanitize-invariants")]
mod imp {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Audits default to ON in a sanitized build.
    static ENABLED: AtomicBool = AtomicBool::new(true);

    /// True when audits should run.
    #[inline]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Turns the audits on or off at runtime (sanitized builds only).
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }
}

#[cfg(feature = "sanitize-invariants")]
pub use imp::{enabled, set_enabled};

/// True when audits should run — always `false` without the
/// `sanitize-invariants` feature, so audit branches compile away.
#[cfg(not(feature = "sanitize-invariants"))]
#[inline(always)]
pub const fn enabled() -> bool {
    false
}

/// No-op without the `sanitize-invariants` feature (callers need no cfg).
#[cfg(not(feature = "sanitize-invariants"))]
pub fn set_enabled(_on: bool) {}

/// Whether the sanitizer was compiled into this build at all (the runtime
/// switch only matters when this is true).
pub const fn compiled() -> bool {
    cfg!(feature = "sanitize-invariants")
}

/// Reports an invariant violation. Sanitizer audits detect internal bugs,
/// not user error, so this panics loudly instead of returning a `Result`.
// The sanitizer's entire job is to panic on internal invariant violations;
// it is compiled out of release serving builds.
#[cold]
#[inline(never)]
pub fn violation(context: &str, detail: &str) -> ! {
    panic!("sanitize-invariants: {context}: {detail}");
}

/// Audits one coordinate: finite and not negative zero. `-0.0` compares
/// equal to `0.0` but has a different bit pattern, which breaks the
/// bit-identity contracts (`to_bits` comparisons, `Rect::bit_key` dedup)
/// the equivalence suites and obstacle-dedup maps rely on.
#[inline]
pub fn audit_coord(context: &str, v: f64) {
    if enabled() {
        if !v.is_finite() {
            violation(context, &format!("non-finite coordinate {v}"));
        }
        if v == 0.0 && v.is_sign_negative() {
            violation(context, "negative-zero coordinate");
        }
    }
}

/// Audits a distance-like value: a distance may legitimately be `+∞`
/// (unreachable) but never NaN or negative.
#[inline]
pub fn audit_distance(context: &str, d: f64) {
    if enabled() {
        if d.is_nan() {
            violation(context, "NaN distance");
        }
        if d < 0.0 {
            violation(context, &format!("negative distance {d}"));
        }
    }
}

/// Serializes tests that flip or depend on the process-global switch —
/// the test harness runs tests on parallel threads, and a test that
/// briefly disables the audits must not race one asserting they fire.
#[cfg(all(test, feature = "sanitize-invariants"))]
#[expect(
    clippy::disallowed_types,
    reason = "a test-only lock, held for one test that reads or flips the switch"
)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_reflects_the_feature() {
        assert_eq!(compiled(), cfg!(feature = "sanitize-invariants"));
    }

    #[test]
    #[cfg(not(feature = "sanitize-invariants"))]
    fn disabled_build_never_audits() {
        assert!(!enabled());
        set_enabled(true); // no-op
        assert!(!enabled());
        // audit helpers are inert
        audit_coord("test", f64::NAN);
        audit_distance("test", -1.0);
    }

    #[test]
    #[cfg(feature = "sanitize-invariants")]
    fn switch_toggles() {
        let _guard = test_guard();
        assert!(enabled(), "sanitized builds default to on");
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }

    #[test]
    #[cfg(feature = "sanitize-invariants")]
    fn audit_coord_fires_on_nan_and_negative_zero() {
        let _guard = test_guard();
        assert!(std::panic::catch_unwind(|| audit_coord("t", f64::NAN)).is_err());
        assert!(std::panic::catch_unwind(|| audit_coord("t", -0.0)).is_err());
        assert!(std::panic::catch_unwind(|| audit_coord("t", f64::INFINITY)).is_err());
        audit_coord("t", 0.0);
        audit_coord("t", -17.25);
    }

    #[test]
    #[cfg(feature = "sanitize-invariants")]
    fn audit_distance_fires_on_nan_and_negative() {
        let _guard = test_guard();
        assert!(std::panic::catch_unwind(|| audit_distance("t", f64::NAN)).is_err());
        assert!(std::panic::catch_unwind(|| audit_distance("t", -1e-12)).is_err());
        audit_distance("t", 0.0);
        audit_distance("t", f64::INFINITY);
    }
}
