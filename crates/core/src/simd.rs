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
//!
//! A body may also be generic over a const row width `W`.
//! [`with_row_width!`] picks the instantiation for a given `d`: `W = d`
//! for `d` in `1..=8`, and `W = 0` ("read `d` at run time") above that.
//! A body that slices its `d`-wide rows to [`row_width`] elements gets
//! loops of a known trip count at small `d`, which the compiler
//! unrolls; the arithmetic and its order are the same in every
//! instantiation. Each (build, width) pair is a function of its own, so
//! the run-time-width loop is compiled as if the others did not exist.

/// Define `fn $name(args) -> ret`, which runs the `#[inline(always)]`
/// function `$body` (same arguments) built for the widest of AVX-512F,
/// AVX2 and portable code that the CPU supports. `$body` stays callable
/// on its own as the portable reference, and under `cfg(test)` a module
/// `$name` offers `$name::builds()`: every build the CPU can run, by
/// name, so tests can pin each one. With `<const W: usize>` after the
/// name, `$name`, its builds and `builds` are generic over `W` too, and
/// each instantiation is a function of its own.
macro_rules! multiversion {
    (
        $(#[$attr:meta])*
        fn $name:ident $(<const $w:ident: usize>)? ($($arg:ident: $ty:ty),* $(,)?)
            $(-> $ret:ty)? = $body:ident;
    ) => {
        $(#[$attr])*
        // Every build takes the body's arguments, however many it has.
        #[allow(unsafe_code, clippy::too_many_arguments)]
        fn $name $(<const $w: usize>)? ($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                if ::std::is_x86_feature_detected!("avx512f") {
                    // SAFETY: `avx512` needs only AVX-512F, which the
                    // line above detected on the running CPU.
                    return unsafe { $name::avx512 $(::<$w>)? ($($arg),*) };
                }
                if ::std::is_x86_feature_detected!("avx2") {
                    // SAFETY: `avx2` needs only AVX2, which the line
                    // above detected on the running CPU.
                    return unsafe { $name::avx2 $(::<$w>)? ($($arg),*) };
                }
            }
            $body $(::<$w>)? ($($arg),*)
        }

        /// The vector builds of the function of the same name.
        #[allow(clippy::too_many_arguments)]
        mod $name {
            #[allow(unused_imports)]
            use super::*;

            /// The body built with AVX2 enabled.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            pub(super) fn avx2 $(<const $w: usize>)? ($($arg: $ty),*) $(-> $ret)? {
                $body $(::<$w>)? ($($arg),*)
            }

            /// The body built with AVX-512F enabled.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            pub(super) fn avx512 $(<const $w: usize>)? ($($arg: $ty),*) $(-> $ret)? {
                $body $(::<$w>)? ($($arg),*)
            }

            /// Every build the running CPU supports, portable first.
            #[cfg(test)]
            #[allow(unsafe_code)]
            pub(crate) fn builds $(<const $w: usize>)? ()
                -> Vec<(&'static str, fn($($ty),*) $(-> $ret)?)>
            {
                let mut out: Vec<(&'static str, fn($($ty),*) $(-> $ret)?)> =
                    vec![("portable", $body $(::<$w>)?)];
                #[cfg(target_arch = "x86_64")]
                {
                    if ::std::is_x86_feature_detected!("avx2") {
                        // SAFETY: AVX2 was detected on the running CPU.
                        out.push(("avx2", |$($arg),*| unsafe { avx2 $(::<$w>)? ($($arg),*) }));
                    }
                    if ::std::is_x86_feature_detected!("avx512f") {
                        // SAFETY: AVX-512F was detected on the running CPU.
                        out.push((
                            "avx512",
                            |$($arg),*| unsafe { avx512 $(::<$w>)? ($($arg),*) },
                        ));
                    }
                }
                out
            }
        }
    };
}

pub(crate) use multiversion;

/// `$f::<W>` as a function pointer, with `W = $d` when `$d` is in
/// `1..=8` and `W = 0` otherwise. `$f` is a path to a function generic
/// over `<const W: usize>`, such as one [`multiversion!`] defined.
macro_rules! with_row_width {
    ($d:expr, $($f:ident)::+) => {
        match $d {
            1 => $($f)::+::<1>,
            2 => $($f)::+::<2>,
            3 => $($f)::+::<3>,
            4 => $($f)::+::<4>,
            5 => $($f)::+::<5>,
            6 => $($f)::+::<6>,
            7 => $($f)::+::<7>,
            8 => $($f)::+::<8>,
            _ => $($f)::+::<0>,
        }
    };
}

pub(crate) use with_row_width;

/// The row width a [`with_row_width!`] body works at: the constant `W`
/// when it is nonzero (the dispatch guarantees `d == W`), else `d`.
#[inline(always)]
pub(crate) fn row_width<const W: usize>(d: usize) -> usize {
    if W == 0 {
        d
    } else {
        debug_assert_eq!(d, W, "row width dispatched for another d");
        W
    }
}
