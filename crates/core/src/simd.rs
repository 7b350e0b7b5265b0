//! Run-time selection among portable, AVX2 and AVX-512 builds of a host
//! loop.
//!
//! The default `x86_64` target compiles for SSE2, so each `f64` vector
//! operation covers two lanes. [`multiversion!`] compiles one
//! `#[inline(always)]` body three times — portable, with AVX2 and with
//! AVX-512F enabled — and runs the widest build the CPU supports, as
//! reported by `is_x86_feature_detected!`. The body must give the same
//! bits under any vector width: only element-wise IEEE operations may
//! vectorise (conversion, add, sub, mul, div), and no reduction may
//! change its order. AVX-512F lets the compiler use FMA instructions,
//! but Rust never contracts `a * b + c` into one, so no rounding step
//! is lost.
//!
//! This macro holds the crate's only `unsafe`.

/// Define `fn $name(args) -> ret`, which runs the `#[inline(always)]`
/// function `$body` (same arguments) built for the widest of AVX-512F,
/// AVX2 and portable code that the CPU supports. `$body` stays callable
/// on its own as the portable reference, and under `cfg(test)` a module
/// `$name` offers `$name::builds()`: every build the CPU can run, by
/// name, so tests can pin each one.
macro_rules! multiversion {
    (
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:ident;
    ) => {
        $(#[$attr])*
        // Every build takes the body's arguments, however many it has.
        #[allow(unsafe_code, clippy::too_many_arguments)]
        fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                if ::std::is_x86_feature_detected!("avx512f") {
                    // SAFETY: `avx512` needs only AVX-512F, which the
                    // line above detected on the running CPU.
                    return unsafe { $name::avx512($($arg),*) };
                }
                if ::std::is_x86_feature_detected!("avx2") {
                    // SAFETY: `avx2` needs only AVX2, which the line
                    // above detected on the running CPU.
                    return unsafe { $name::avx2($($arg),*) };
                }
            }
            $body($($arg),*)
        }

        /// The vector builds of the function of the same name.
        #[allow(clippy::too_many_arguments)]
        mod $name {
            #[allow(unused_imports)]
            use super::*;

            /// The body built with AVX2 enabled.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            pub(super) fn avx2($($arg: $ty),*) $(-> $ret)? {
                $body($($arg),*)
            }

            /// The body built with AVX-512F enabled.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            pub(super) fn avx512($($arg: $ty),*) $(-> $ret)? {
                $body($($arg),*)
            }

            /// Every build the running CPU supports, portable first.
            #[cfg(test)]
            #[allow(unsafe_code)]
            pub(crate) fn builds() -> Vec<(&'static str, fn($($ty),*) $(-> $ret)?)> {
                let mut out: Vec<(&'static str, fn($($ty),*) $(-> $ret)?)> =
                    vec![("portable", $body)];
                #[cfg(target_arch = "x86_64")]
                {
                    if ::std::is_x86_feature_detected!("avx2") {
                        // SAFETY: AVX2 was detected on the running CPU.
                        out.push(("avx2", |$($arg),*| unsafe { avx2($($arg),*) }));
                    }
                    if ::std::is_x86_feature_detected!("avx512f") {
                        // SAFETY: AVX-512F was detected on the running CPU.
                        out.push(("avx512", |$($arg),*| unsafe { avx512($($arg),*) }));
                    }
                }
                out
            }
        }
    };
}

pub(crate) use multiversion;
