/**
 * @file
 * SIMD capability detection and the runtime kernel-dispatch switch.
 *
 * The simulation kernels ship two implementations: a portable scalar
 * path and an AVX2/FMA path (compiled with per-function target
 * attributes, so the rest of the library keeps the baseline ISA). Which
 * one runs is decided at run time:
 *
 *   - compile-time: `QISMET_SIMD_X86` is defined only on x86-64 with a
 *     compiler that supports target attributes + intrinsics (and the
 *     QISMET_ENABLE_SIMD CMake option left ON). Elsewhere the AVX2
 *     entry points are compiled as scalar forwarders.
 *   - run time: the CPU must report AVX2 and FMA
 *     (`__builtin_cpu_supports`), checked once and cached.
 *   - policy: the `QISMET_SIMD` environment variable (`off`/`0`
 *     disables, `on`/`1` keeps the default; anything else is an error,
 *     an empty value counts as unset; read once) and the
 *     `setSimdEnabled()` programmatic override (tests, A/B benches).
 *     Both settings give the same bits, so the choice is about speed.
 *
 * Determinism contract (DESIGN.md "SIMD + intra-state parallelism"):
 * the SIMD kernels are bit-identical to the scalar kernels. The
 * FP-contraction policy is **off** — no fused multiply-add is used on
 * either path, every multiply and add rounds individually, in the same
 * order, exactly like the pre-SIMD scalar code. FMA hardware is
 * required only because AVX2 CPUs universally have it and the runtime
 * check is conservative; the kernels never emit contracted ops. This is
 * what lets SIMD-on and SIMD-off runs — and every thread count — share
 * one set of golden traces.
 */

#ifndef QISMET_COMMON_SIMD_HPP
#define QISMET_COMMON_SIMD_HPP

#if !defined(QISMET_DISABLE_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define QISMET_SIMD_X86 1
#else
#define QISMET_SIMD_X86 0
#endif

#include <string_view>

namespace qismet {

/**
 * True when the AVX2 kernels can run here: compiled in and the CPU
 * reports AVX2+FMA. Checked once, then cached.
 */
bool simdAvailable();

/**
 * The dispatch decision the kernels consult: simdAvailable() and not
 * disabled by `QISMET_SIMD=off` (or `=0`) or setSimdEnabled(false).
 * @throws std::invalid_argument on first use if QISMET_SIMD holds
 *         anything but off/0/on/1 (parseSimdSwitch).
 */
bool simdEnabled();

/**
 * Programmatic override of the SIMD switch (tests, A/B benches).
 * Enabling on a machine without AVX2 support is a no-op: simdEnabled()
 * stays false.
 */
void setSimdEnabled(bool on);

/** "avx2" when simdEnabled(), else "scalar" — for bench/CI labels. */
const char *simdBackendName();

/**
 * Parse a SIMD switch given through the flag or environment variable
 * `name`: "on" or "1" is true, "off" or "0" is false.
 * @throws std::invalid_argument naming `name` and `value` otherwise.
 */
bool parseSimdSwitch(std::string_view name, std::string_view value);

} // namespace qismet

#endif // QISMET_COMMON_SIMD_HPP
