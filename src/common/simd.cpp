#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace qismet {

namespace {

/** -1 = follow the environment, 0/1 = setSimdEnabled override. */
std::atomic<int> g_simdOverride{-1};

bool
detectCpu()
{
#if QISMET_SIMD_X86
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

} // namespace

bool
simdAvailable()
{
    static const bool available = detectCpu();
    return available;
}

bool
simdEnabled()
{
    // Parsed before the capability check, so a bad value is reported on
    // every host, with or without AVX2.
    static const bool envEnabled = [] {
        const char *v = std::getenv("QISMET_SIMD");
        return v == nullptr || *v == '\0' ||
               parseSimdSwitch("QISMET_SIMD", v);
    }();
    if (!simdAvailable())
        return false;
    const int override_ = g_simdOverride.load(std::memory_order_relaxed);
    if (override_ >= 0)
        return override_ != 0;
    return envEnabled;
}

void
setSimdEnabled(bool on)
{
    g_simdOverride.store(on ? 1 : 0, std::memory_order_relaxed);
}

const char *
simdBackendName()
{
    return simdEnabled() ? "avx2" : "scalar";
}

bool
parseSimdSwitch(std::string_view name, std::string_view value)
{
    if (value == "on" || value == "1")
        return true;
    if (value == "off" || value == "0")
        return false;
    throw std::invalid_argument(std::string(name) + ": bad SIMD switch '" +
                                std::string(value) +
                                "' (want off, 0, on or 1)");
}

} // namespace qismet
