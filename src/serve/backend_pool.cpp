#include "serve/backend_pool.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/format_double.hpp"
#include "common/rng.hpp"

namespace qismet {

std::string
backendHealthName(BackendHealth health)
{
    switch (health) {
      case BackendHealth::Healthy: return "healthy";
      case BackendHealth::Degraded: return "degraded";
      case BackendHealth::Quarantined: return "quarantined";
    }
    return "?";
}

std::string
breakerStateName(BreakerState state)
{
    switch (state) {
      case BreakerState::Closed: return "closed";
      case BreakerState::Open: return "open";
      case BreakerState::HalfOpen: return "half-open";
    }
    return "?";
}

void
HealthPolicy::validate() const
{
    if (degradeAfterFaults < 1 || quarantineAfterFaults < 1 ||
        recoverAfterSuccesses < 1)
        throw std::invalid_argument(
            "HealthPolicy: hysteresis counts must be positive");
    if (degradeAfterFaults > quarantineAfterFaults)
        throw std::invalid_argument(
            "HealthPolicy: degradeAfterFaults must not exceed "
            "quarantineAfterFaults");
    if (breakerCooldownTicks == 0 || breakerMaxCooldownTicks == 0)
        throw std::invalid_argument(
            "HealthPolicy: zero breaker cooldown");
    if (breakerCooldownTicks > breakerMaxCooldownTicks)
        throw std::invalid_argument(
            "HealthPolicy: base cooldown exceeds the ceiling");
    // Negated so that a NaN fails them. The growth reaches an integer
    // cast, so it must be finite too.
    if (!(breakerCooldownGrowth >= 1.0) || std::isinf(breakerCooldownGrowth))
        throw std::invalid_argument(
            "HealthPolicy: breakerCooldownGrowth = " +
            formatDouble(breakerCooldownGrowth) +
            " must be finite and >= 1");
    if (!(latencyDegradeFactor >= 1.0))
        throw std::invalid_argument(
            "HealthPolicy: latencyDegradeFactor = " +
            formatDouble(latencyDegradeFactor) + " must be >= 1");
    if (!(latencyEwmaAlpha > 0.0) || latencyEwmaAlpha > 1.0)
        throw std::invalid_argument(
            "HealthPolicy: EWMA alpha must be in (0, 1]");
}

BackendPool::BackendPool(const std::vector<std::string> &machine_names,
                         std::uint64_t seed, HealthPolicy policy)
    : policy_(policy)
{
    policy_.validate();
    if (machine_names.empty())
        throw std::invalid_argument("BackendPool: empty fleet");
    backends_.reserve(machine_names.size());
    for (std::size_t id = 0; id < machine_names.size(); ++id) {
        Backend b;
        b.model = machineModel(machine_names[id]);
        b.streamSeed =
            deriveStreamSeed(seed, StreamDomain::kBackend, id);
        b.cooldownTicks = policy_.breakerCooldownTicks;
        backends_.push_back(std::move(b));
    }
}

bool
BackendPool::anyFree() const
{
    return freeCount() > 0;
}

std::size_t
BackendPool::freeCount() const
{
    std::size_t n = 0;
    for (const Backend &b : backends_)
        if (!b.leased)
            ++n;
    return n;
}

bool
BackendPool::leasable(std::size_t backend_id, std::uint64_t now) const
{
    const Backend &b = at(backend_id);
    if (b.leased)
        return false;
    if (b.breaker == BreakerState::Open)
        return now >= b.breakerOpenedTick + b.cooldownTicks;
    return true;
}

bool
BackendPool::anyLeasable(std::uint64_t now) const
{
    for (std::size_t id = 0; id < backends_.size(); ++id)
        if (leasable(id, now))
            return true;
    return false;
}

BackendLease
BackendPool::acquire()
{
    for (std::size_t id = 0; id < backends_.size(); ++id) {
        Backend &b = backends_[id];
        if (b.leased)
            continue;
        b.leased = true;
        ++b.epoch;
        return BackendLease{id, b.epoch};
    }
    throw std::runtime_error("BackendPool::acquire: pool exhausted");
}

std::optional<BackendLease>
BackendPool::acquireHealthAware(
    std::uint64_t now, std::vector<HealthTransition> &transitions)
{
    // Rank: Healthy (0) before Degraded (1) before a probe of an
    // elapsed Open breaker (2); lowest id within a rank. The ranking
    // is what routes work *around* a suspect machine while healthy
    // capacity exists (the DISQ detect-and-avoid move), yet still
    // probes quarantined machines under load pressure.
    int bestRank = 3;
    std::size_t bestId = 0;
    for (std::size_t id = 0; id < backends_.size(); ++id) {
        if (!leasable(id, now))
            continue;
        const Backend &b = backends_[id];
        int rank = 2;
        if (b.breaker != BreakerState::Open) {
            rank = b.health == BackendHealth::Healthy  ? 0
                   : b.health == BackendHealth::Degraded ? 1
                                                         : 2;
        }
        if (rank < bestRank) {
            bestRank = rank;
            bestId = id;
        }
    }
    if (bestRank == 3)
        return std::nullopt;

    Backend &b = backends_[bestId];
    if (b.breaker == BreakerState::Open) {
        // Cooldown elapsed: this lease is the half-open probe.
        b.breaker = BreakerState::HalfOpen;
        ++stats_.halfOpenProbes;
        transitions.push_back(transitionOf(b, bestId, now));
    }
    b.leased = true;
    ++b.epoch;
    return BackendLease{bestId, b.epoch};
}

BackendPool::Backend &
BackendPool::validateRelease(const BackendLease &lease)
{
    if (lease.backendId >= backends_.size())
        throw std::invalid_argument(
            "BackendPool::release: unknown backend " +
            std::to_string(lease.backendId));
    Backend &b = backends_[lease.backendId];
    if (!b.leased)
        throw std::invalid_argument(
            "BackendPool::release: backend " +
            std::to_string(lease.backendId) +
            " is not leased (double release?)");
    if (b.epoch != lease.epoch)
        throw std::invalid_argument(
            "BackendPool::release: stale lease epoch " +
            std::to_string(lease.epoch) + " for backend " +
            std::to_string(lease.backendId) + " (current " +
            std::to_string(b.epoch) + ")");
    return b;
}

void
BackendPool::release(const BackendLease &lease)
{
    // Legacy health-blind form: a nominal-latency success at tick 0,
    // transitions discarded — direct pool users exercise the same
    // hysteresis arithmetic as the scheduler.
    releaseSuccess(lease, 1.0, 0);
}

std::vector<HealthTransition>
BackendPool::releaseSuccess(const BackendLease &lease,
                            double latency_factor, std::uint64_t now)
{
    // Negated so that a NaN fails it: it would stay in the EWMA.
    if (!(latency_factor >= 0.0) || std::isinf(latency_factor))
        throw std::invalid_argument(
            "BackendPool::releaseSuccess: latency_factor = " +
            formatDouble(latency_factor) +
            " must be finite and >= 0");
    std::vector<HealthTransition> transitions;
    Backend &b = validateRelease(lease);
    const Backend before = b;
    b.leased = false;
    ++b.completedLeases;
    b.calibrationDigest ^= deriveStreamSeed(
        b.streamSeed, StreamDomain::kBackendLease, lease.epoch);

    b.consecSuccesses += 1;
    b.consecFaults = 0;
    b.latencyEwma = policy_.latencyEwmaAlpha * latency_factor +
                    (1.0 - policy_.latencyEwmaAlpha) * b.latencyEwma;

    if (b.breaker == BreakerState::HalfOpen) {
        // Probe succeeded: close, but land on Degraded — the recovery
        // hysteresis (consecutive clean successes) earns Healthy back.
        b.breaker = BreakerState::Closed;
        b.cooldownTicks = policy_.breakerCooldownTicks;
        b.health = BackendHealth::Degraded;
        b.consecSuccesses = 1;
    }

    if (b.latencyEwma > policy_.latencyDegradeFactor) {
        if (b.health == BackendHealth::Healthy)
            b.health = BackendHealth::Degraded;
        // A slow success is not a *clean* success for recovery.
        b.consecSuccesses = 0;
    }
    else if (b.health == BackendHealth::Degraded &&
             b.consecSuccesses >= static_cast<std::uint32_t>(
                                      policy_.recoverAfterSuccesses)) {
        b.health = BackendHealth::Healthy;
    }

    recordIfChanged(before, b, lease.backendId, now, transitions);
    return transitions;
}

std::vector<HealthTransition>
BackendPool::releaseFaulted(const BackendLease &lease,
                            std::uint64_t now)
{
    std::vector<HealthTransition> transitions;
    Backend &b = validateRelease(lease);
    const Backend before = b;
    // The machine did no work: no calibration advance, no completed
    // lease — the faulted lease is its own ledger line.
    b.leased = false;
    ++b.faultedLeases;
    ++stats_.faultsObserved;

    b.consecFaults += 1;
    b.consecSuccesses = 0;

    if (b.breaker == BreakerState::HalfOpen) {
        // Failed probe: reopen with a multiplied, bounded cooldown.
        b.breaker = BreakerState::Open;
        b.breakerOpenedTick = now;
        // A finite growth can carry the product past 2^64, where the
        // cast is undefined; every product it can carry is clamped.
        const double grown = static_cast<double>(b.cooldownTicks) *
                             policy_.breakerCooldownGrowth;
        b.cooldownTicks =
            grown < 0x1.0p64
                ? std::min(policy_.breakerMaxCooldownTicks,
                           static_cast<std::uint64_t>(grown))
                : policy_.breakerMaxCooldownTicks;
        b.health = BackendHealth::Quarantined;
        ++stats_.breakerReopens;
    }
    else if (b.consecFaults >= static_cast<std::uint32_t>(
                                   policy_.quarantineAfterFaults)) {
        if (b.breaker == BreakerState::Closed) {
            b.breaker = BreakerState::Open;
            b.breakerOpenedTick = now;
            b.cooldownTicks = policy_.breakerCooldownTicks;
            ++stats_.breakerTrips;
        }
        b.health = BackendHealth::Quarantined;
    }
    else if (b.consecFaults >= static_cast<std::uint32_t>(
                                   policy_.degradeAfterFaults) &&
             b.health == BackendHealth::Healthy) {
        b.health = BackendHealth::Degraded;
    }

    recordIfChanged(before, b, lease.backendId, now, transitions);
    return transitions;
}

std::vector<HealthTransition>
BackendPool::applyCalibrationStorm(std::size_t backend_id,
                                   std::uint64_t draws,
                                   std::uint64_t now)
{
    std::vector<HealthTransition> transitions;
    at(backend_id); // bounds check
    Backend &b = backends_[backend_id];
    const Backend before = b;
    for (std::uint64_t i = 0; i < draws; ++i) {
        ++b.stormDraws;
        b.calibrationDigest ^= deriveStreamSeed(
            b.streamSeed, StreamDomain::kChaosStorm, b.stormDraws);
    }
    ++stats_.stormsApplied;
    // Drift is a health observation: the machine is suspect until the
    // recovery hysteresis clears it.
    if (b.health == BackendHealth::Healthy)
        b.health = BackendHealth::Degraded;
    b.consecSuccesses = 0;
    recordIfChanged(before, b, backend_id, now, transitions);
    return transitions;
}

std::optional<std::uint64_t>
BackendPool::earliestProbeTick() const
{
    std::optional<std::uint64_t> earliest;
    for (const Backend &b : backends_) {
        if (b.breaker != BreakerState::Open)
            continue;
        const std::uint64_t at_tick =
            b.breakerOpenedTick + b.cooldownTicks;
        if (!earliest || at_tick < *earliest)
            earliest = at_tick;
    }
    return earliest;
}

void
BackendPool::restoreHealth(const HealthTransition &transition)
{
    at(transition.backendId); // bounds check
    Backend &b = backends_[transition.backendId];
    b.health = transition.health;
    // A HalfOpen probe was in flight when the process died; the lease
    // is gone, so the breaker resumes Open and re-probes after its
    // recorded cooldown.
    b.breaker = transition.breaker == BreakerState::HalfOpen
                    ? BreakerState::Open
                    : transition.breaker;
    b.cooldownTicks = transition.cooldownTicks != 0
                          ? transition.cooldownTicks
                          : policy_.breakerCooldownTicks;
    b.breakerOpenedTick = transition.breakerOpenedTick;
    b.consecFaults = transition.consecutiveFaults;
    b.consecSuccesses = transition.consecutiveSuccesses;
}

HealthTransition
BackendPool::transitionOf(const Backend &b, std::size_t id,
                          std::uint64_t now) const
{
    HealthTransition t;
    t.backendId = id;
    t.tick = now;
    t.health = b.health;
    t.breaker = b.breaker;
    t.cooldownTicks = b.cooldownTicks;
    t.breakerOpenedTick = b.breakerOpenedTick;
    t.consecutiveFaults = b.consecFaults;
    t.consecutiveSuccesses = b.consecSuccesses;
    return t;
}

void
BackendPool::recordIfChanged(const Backend &before, const Backend &after,
                             std::size_t id, std::uint64_t now,
                             std::vector<HealthTransition> &out) const
{
    if (before.health != after.health ||
        before.breaker != after.breaker)
        out.push_back(transitionOf(after, id, now));
}

const BackendPool::Backend &
BackendPool::at(std::size_t backend_id) const
{
    if (backend_id >= backends_.size())
        throw std::invalid_argument("BackendPool: unknown backend " +
                                    std::to_string(backend_id));
    return backends_[backend_id];
}

const MachineModel &
BackendPool::machine(std::size_t backend_id) const
{
    return at(backend_id).model;
}

std::uint64_t
BackendPool::leasesCompleted(std::size_t backend_id) const
{
    return at(backend_id).completedLeases;
}

std::uint64_t
BackendPool::leasesFaulted(std::size_t backend_id) const
{
    return at(backend_id).faultedLeases;
}

std::uint64_t
BackendPool::calibrationDigest(std::size_t backend_id) const
{
    return at(backend_id).calibrationDigest;
}

BackendHealth
BackendPool::health(std::size_t backend_id) const
{
    return at(backend_id).health;
}

BreakerState
BackendPool::breaker(std::size_t backend_id) const
{
    return at(backend_id).breaker;
}

std::uint32_t
BackendPool::consecutiveFaults(std::size_t backend_id) const
{
    return at(backend_id).consecFaults;
}

double
BackendPool::latencyEwma(std::size_t backend_id) const
{
    return at(backend_id).latencyEwma;
}

} // namespace qismet
