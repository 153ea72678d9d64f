#include "fault/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/atomic_file.hpp"
#include "common/format_double.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"

namespace qismet {

namespace {

/** An event rate is a Poisson mean: NaN or infinity would reach its
 *  integer cast. The comparison is negated so that a NaN fails it. */
void
requireRate(double rate, const char *field)
{
    if (!(rate >= 0.0) || std::isinf(rate))
        throw std::invalid_argument(std::string("ChaosConfig: ") + field +
                                    " = " + formatDouble(rate) +
                                    " must be finite and >= 0");
}

} // namespace

std::string
chaosKindName(ChaosKind kind)
{
    switch (kind) {
      case ChaosKind::BackendOutage: return "backend-outage";
      case ChaosKind::BackendSlowdown: return "backend-slowdown";
      case ChaosKind::CalibrationStorm: return "calibration-storm";
      case ChaosKind::TenantFlood: return "tenant-flood";
    }
    return "?";
}

void
ChaosConfig::validate() const
{
    if (backends == 0)
        throw std::invalid_argument("ChaosConfig: empty fleet");
    if (tenants == 0)
        throw std::invalid_argument("ChaosConfig: zero tenant space");
    if (horizonTicks < 16)
        throw std::invalid_argument(
            "ChaosConfig: horizonTicks must be at least 16");
    requireRate(outagesPerBackend, "outagesPerBackend");
    requireRate(slowdownsPerBackend, "slowdownsPerBackend");
    requireRate(stormsPerBackend, "stormsPerBackend");
}

ChaosSchedule::ChaosSchedule(std::vector<ChaosEvent> events)
    : events_(std::move(events))
{
    for (const ChaosEvent &e : events_) {
        if (e.endTick <= e.startTick)
            throw std::invalid_argument(
                "ChaosSchedule: empty or inverted window for " +
                chaosKindName(e.kind));
        if (!(e.magnitude >= 1.0) || std::isinf(e.magnitude))
            throw std::invalid_argument(
                "ChaosSchedule: magnitude = " + formatDouble(e.magnitude) +
                " must be finite and >= 1 for " +
                chaosKindName(e.kind));
    }
    std::sort(events_.begin(), events_.end(),
              [](const ChaosEvent &a, const ChaosEvent &b) {
                  if (a.startTick != b.startTick)
                      return a.startTick < b.startTick;
                  if (a.kind != b.kind)
                      return static_cast<std::uint8_t>(a.kind) <
                             static_cast<std::uint8_t>(b.kind);
                  return a.target < b.target;
              });
}

namespace {

bool
covers(const ChaosEvent &e, std::uint64_t tick)
{
    return tick >= e.startTick && tick < e.endTick;
}

} // namespace

bool
ChaosSchedule::outageAt(std::uint64_t backend_id,
                        std::uint64_t tick) const
{
    for (const ChaosEvent &e : events_)
        if (e.kind == ChaosKind::BackendOutage &&
            e.target == backend_id && covers(e, tick))
            return true;
    return false;
}

double
ChaosSchedule::slowdownAt(std::uint64_t backend_id,
                          std::uint64_t tick) const
{
    double factor = 1.0;
    for (const ChaosEvent &e : events_)
        if (e.kind == ChaosKind::BackendSlowdown &&
            e.target == backend_id && covers(e, tick))
            factor *= e.magnitude;
    return factor;
}

std::vector<std::size_t>
ChaosSchedule::stormsAt(std::uint64_t backend_id,
                        std::uint64_t tick) const
{
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const ChaosEvent &e = events_[i];
        if (e.kind == ChaosKind::CalibrationStorm &&
            e.target == backend_id && covers(e, tick))
            open.push_back(i);
    }
    return open;
}

std::vector<ChaosEvent>
ChaosSchedule::floods() const
{
    std::vector<ChaosEvent> out;
    for (const ChaosEvent &e : events_)
        if (e.kind == ChaosKind::TenantFlood)
            out.push_back(e);
    return out;
}

std::uint64_t
ChaosSchedule::horizon() const
{
    std::uint64_t h = 0;
    for (const ChaosEvent &e : events_)
        h = std::max(h, e.endTick);
    return h;
}

std::uint64_t
ChaosSchedule::digest() const
{
    Encoder enc;
    enc.writeU64(events_.size());
    for (const ChaosEvent &e : events_) {
        enc.writeU8(static_cast<std::uint8_t>(e.kind));
        enc.writeU64(e.target);
        enc.writeU64(e.startTick);
        enc.writeU64(e.endTick);
        enc.writeF64(e.magnitude);
        enc.writeU64(e.count);
    }
    return fnv1a64(enc.bytes());
}

namespace {

/** Window wholly inside [0, horizon), at least one tick long. */
void
drawWindow(Rng &rng, std::uint64_t horizon, std::uint64_t min_len,
           std::uint64_t max_len, ChaosEvent &event)
{
    const std::uint64_t len =
        min_len + rng.uniformInt(max_len - min_len + 1);
    const std::uint64_t latestStart =
        horizon > len ? horizon - len : 1;
    event.startTick = rng.uniformInt(latestStart);
    event.endTick = event.startTick + len;
}

} // namespace

ChaosSchedule
generateChaosSchedule(const ChaosConfig &config, std::uint64_t seed)
{
    config.validate();
    std::vector<ChaosEvent> events;

    // Window lengths scale with the horizon so denser schedules stay
    // escapable: outages at most a quarter of the horizon, slowdowns
    // and storms at most half.
    const std::uint64_t quarter =
        std::max<std::uint64_t>(2, config.horizonTicks / 4);
    const std::uint64_t half =
        std::max<std::uint64_t>(2, config.horizonTicks / 2);

    for (std::uint64_t b = 0; b < config.backends; ++b) {
        Rng outageRng(
            deriveStreamSeed(seed, StreamDomain::kChaosOutage, b));
        const std::uint64_t outages =
            outageRng.poisson(config.outagesPerBackend);
        for (std::uint64_t i = 0; i < outages; ++i) {
            ChaosEvent e;
            e.kind = ChaosKind::BackendOutage;
            e.target = b;
            drawWindow(outageRng, config.horizonTicks, 2, quarter, e);
            events.push_back(e);
        }

        Rng slowRng(
            deriveStreamSeed(seed, StreamDomain::kChaosSlowdown, b));
        const std::uint64_t slowdowns =
            slowRng.poisson(config.slowdownsPerBackend);
        for (std::uint64_t i = 0; i < slowdowns; ++i) {
            ChaosEvent e;
            e.kind = ChaosKind::BackendSlowdown;
            e.target = b;
            drawWindow(slowRng, config.horizonTicks, 2, half, e);
            e.magnitude = slowRng.uniform(2.0, 8.0);
            events.push_back(e);
        }

        Rng stormRng(
            deriveStreamSeed(seed, StreamDomain::kChaosStorm, b));
        const std::uint64_t storms =
            stormRng.poisson(config.stormsPerBackend);
        for (std::uint64_t i = 0; i < storms; ++i) {
            ChaosEvent e;
            e.kind = ChaosKind::CalibrationStorm;
            e.target = b;
            drawWindow(stormRng, config.horizonTicks, 2, half, e);
            e.count = 1 + stormRng.uniformInt(4);
            events.push_back(e);
        }
    }

    for (std::size_t f = 0; f < config.floods; ++f) {
        Rng floodRng(
            deriveStreamSeed(seed, StreamDomain::kChaosFlood, f));
        ChaosEvent e;
        e.kind = ChaosKind::TenantFlood;
        e.target = floodRng.uniformInt(config.tenants);
        drawWindow(floodRng, config.horizonTicks, 2, quarter, e);
        e.count = 4 + floodRng.uniformInt(13);
        events.push_back(e);
    }

    return ChaosSchedule(std::move(events));
}

} // namespace qismet
