/**
 * @file
 * Backend health model + circuit breaker: hysteresis thresholds,
 * breaker trip/half-open/reopen timing, latency degradation, storm
 * drift, transition journaling and restoreHealth round-trips.
 * All single-threaded — the model is deterministic arithmetic.
 */

#include "serve/backend_pool.hpp"

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fault/chaos.hpp"

namespace qismet {
namespace {

BackendPool
fleet(std::size_t n, HealthPolicy policy = {})
{
    return BackendPool(std::vector<std::string>(n, "guadalupe"), 1234,
                       policy);
}

/** Lease backend 0 and fault it, advancing `tick` by one per cycle. */
std::vector<HealthTransition>
faultOnce(BackendPool &pool, std::uint64_t &tick)
{
    std::vector<HealthTransition> acquireTransitions;
    auto lease = pool.acquireHealthAware(tick, acquireTransitions);
    EXPECT_TRUE(lease.has_value());
    ++tick;
    auto t = pool.releaseFaulted(*lease, tick);
    for (const HealthTransition &a : acquireTransitions)
        t.insert(t.begin(), a);
    return t;
}

TEST(HealthPolicy, RejectsMalformedFields)
{
    HealthPolicy p;
    p.degradeAfterFaults = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = HealthPolicy{};
    p.quarantineAfterFaults = p.degradeAfterFaults - 1;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = HealthPolicy{};
    p.breakerCooldownGrowth = 0.5;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = HealthPolicy{};
    p.latencyEwmaAlpha = 1.5;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ServeFleetInputs, NonFiniteValuesAreRefusedNamingFieldAndValue)
{
    // Each value would reach an integer cast or the latency EWMA: a NaN
    // Poisson mean casts to 2^63 events, a NaN cooldown growth is cast
    // to a tick count, and a NaN latency stays in the EWMA for good.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    auto chaos = [](double ChaosConfig::*field, double value) {
        return [field, value] {
            ChaosConfig config;
            config.*field = value;
            config.validate();
        };
    };
    auto health = [](double HealthPolicy::*field, double value) {
        return [field, value] {
            HealthPolicy policy;
            policy.*field = value;
            policy.validate();
        };
    };
    auto slowdown = [](double magnitude) {
        return [magnitude] {
            ChaosEvent event;
            event.kind = ChaosKind::BackendSlowdown;
            event.endTick = 4;
            event.magnitude = magnitude;
            const ChaosSchedule schedule({event});
        };
    };
    auto release = [](double latency) {
        return [latency] {
            BackendPool pool = fleet(1);
            pool.releaseSuccess(pool.acquire(), latency, 1);
        };
    };
    struct Row
    {
        std::string want; ///< the field and value the message names
        std::function<void()> call;
    };
    const std::vector<Row> rows = {
        {"mean = nan", [nan] { (void)Rng(1).poisson(nan); }},
        {"mean = inf", [inf] { (void)Rng(1).poisson(inf); }},
        {"outagesPerBackend = nan",
         chaos(&ChaosConfig::outagesPerBackend, nan)},
        {"outagesPerBackend = inf",
         chaos(&ChaosConfig::outagesPerBackend, inf)},
        {"slowdownsPerBackend = nan",
         chaos(&ChaosConfig::slowdownsPerBackend, nan)},
        {"slowdownsPerBackend = inf",
         chaos(&ChaosConfig::slowdownsPerBackend, inf)},
        {"stormsPerBackend = nan",
         chaos(&ChaosConfig::stormsPerBackend, nan)},
        {"stormsPerBackend = inf",
         chaos(&ChaosConfig::stormsPerBackend, inf)},
        {"breakerCooldownGrowth = nan",
         health(&HealthPolicy::breakerCooldownGrowth, nan)},
        {"breakerCooldownGrowth = inf",
         health(&HealthPolicy::breakerCooldownGrowth, inf)},
        {"latencyDegradeFactor = nan",
         health(&HealthPolicy::latencyDegradeFactor, nan)},
        {"magnitude = nan", slowdown(nan)},
        {"magnitude = inf", slowdown(inf)},
        {"latency_factor = nan", release(nan)},
        {"latency_factor = inf", release(inf)},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.want);
        try {
            row.call();
            ADD_FAILURE() << "accepted";
        }
        catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(row.want),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(BackendHealthModel, ConsecutiveFaultsDegradeThenQuarantine)
{
    BackendPool pool = fleet(1);
    std::uint64_t tick = 0;

    faultOnce(pool, tick);
    EXPECT_EQ(pool.health(0), BackendHealth::Healthy);
    faultOnce(pool, tick); // 2nd consecutive fault: degradeAfterFaults
    EXPECT_EQ(pool.health(0), BackendHealth::Degraded);
    EXPECT_EQ(pool.breaker(0), BreakerState::Closed);
    faultOnce(pool, tick);
    faultOnce(pool, tick); // 4th: quarantineAfterFaults — breaker trips
    EXPECT_EQ(pool.health(0), BackendHealth::Quarantined);
    EXPECT_EQ(pool.breaker(0), BreakerState::Open);
    EXPECT_EQ(pool.stats().breakerTrips, 1u);
    EXPECT_EQ(pool.stats().faultsObserved, 4u);
    EXPECT_EQ(pool.leasesFaulted(0), 4u);
    EXPECT_EQ(pool.leasesCompleted(0), 0u);
}

TEST(BackendHealthModel, SuccessResetsFaultStreak)
{
    BackendPool pool = fleet(1);
    std::uint64_t tick = 0;
    faultOnce(pool, tick);
    std::vector<HealthTransition> t;
    auto lease = pool.acquireHealthAware(tick, t);
    pool.releaseSuccess(*lease, 1.0, ++tick);
    EXPECT_EQ(pool.consecutiveFaults(0), 0u);
    // The streak starts over: one more fault must not degrade.
    faultOnce(pool, tick);
    EXPECT_EQ(pool.health(0), BackendHealth::Healthy);
}

TEST(BackendHealthModel, OpenBreakerBlocksLeasingUntilCooldown)
{
    BackendPool pool = fleet(1);
    std::uint64_t tick = 0;
    for (int i = 0; i < 4; ++i)
        faultOnce(pool, tick); // trips at tick 4
    ASSERT_EQ(pool.breaker(0), BreakerState::Open);

    const std::uint64_t cooldown = pool.policy().breakerCooldownTicks;
    EXPECT_FALSE(pool.leasable(0, tick));
    EXPECT_FALSE(pool.anyLeasable(tick));
    ASSERT_TRUE(pool.earliestProbeTick().has_value());
    const std::uint64_t probeTick = *pool.earliestProbeTick();
    EXPECT_EQ(probeTick, tick + cooldown);
    EXPECT_FALSE(pool.leasable(0, probeTick - 1));
    EXPECT_TRUE(pool.leasable(0, probeTick));

    // Leasing at the probe tick half-opens the breaker.
    std::vector<HealthTransition> t;
    auto lease = pool.acquireHealthAware(probeTick, t);
    ASSERT_TRUE(lease.has_value());
    EXPECT_EQ(pool.breaker(0), BreakerState::HalfOpen);
    EXPECT_EQ(pool.stats().halfOpenProbes, 1u);
    ASSERT_FALSE(t.empty());
    EXPECT_EQ(t.back().breaker, BreakerState::HalfOpen);
}

TEST(BackendHealthModel, SuccessfulProbeClosesToDegraded)
{
    BackendPool pool = fleet(1, {});
    std::uint64_t tick = 0;
    for (int i = 0; i < 4; ++i)
        faultOnce(pool, tick);
    const std::uint64_t probeTick = *pool.earliestProbeTick();
    std::vector<HealthTransition> t;
    auto lease = pool.acquireHealthAware(probeTick, t);
    pool.releaseSuccess(*lease, 1.0, probeTick + 1);
    EXPECT_EQ(pool.breaker(0), BreakerState::Closed);
    // Recovery is hysteretic: one probe success earns Degraded, not
    // Healthy.
    EXPECT_EQ(pool.health(0), BackendHealth::Degraded);

    // recoverAfterSuccesses clean successes earn Healthy again.
    std::uint64_t now = probeTick + 1;
    for (int i = 0; i < pool.policy().recoverAfterSuccesses; ++i) {
        std::vector<HealthTransition> tr;
        auto l = pool.acquireHealthAware(now, tr);
        pool.releaseSuccess(*l, 1.0, ++now);
    }
    EXPECT_EQ(pool.health(0), BackendHealth::Healthy);
}

TEST(BackendHealthModel, FailedProbeReopensWithGrownBoundedCooldown)
{
    BackendPool pool = fleet(1);
    std::uint64_t tick = 0;
    for (int i = 0; i < 4; ++i)
        faultOnce(pool, tick);

    const HealthPolicy &p = pool.policy();
    std::uint64_t cooldown = p.breakerCooldownTicks;
    for (int round = 0; round < 8; ++round) {
        const std::uint64_t probeTick = *pool.earliestProbeTick();
        std::vector<HealthTransition> t;
        auto lease = pool.acquireHealthAware(probeTick, t);
        ASSERT_TRUE(lease.has_value());
        const auto reopen = pool.releaseFaulted(*lease, probeTick + 1);
        ASSERT_EQ(pool.breaker(0), BreakerState::Open);
        ASSERT_FALSE(reopen.empty());
        const std::uint64_t grown = static_cast<std::uint64_t>(
            static_cast<double>(cooldown) * p.breakerCooldownGrowth);
        cooldown = std::min(grown, p.breakerMaxCooldownTicks);
        EXPECT_EQ(reopen.back().cooldownTicks, cooldown);
    }
    EXPECT_EQ(cooldown, p.breakerMaxCooldownTicks);
    EXPECT_EQ(pool.stats().breakerReopens, 8u);
}

TEST(BackendHealthModel, HugeFiniteGrowthClampsToTheMaxCooldown)
{
    // 8 · 1e300 is far past 2^64: the reopen must clamp it, not cast it
    // (UBSan's float-cast-overflow reports the cast).
    HealthPolicy policy;
    policy.breakerCooldownGrowth = 1e300;
    BackendPool pool = fleet(1, policy);
    std::uint64_t tick = 0;
    for (int i = 0; i < 4; ++i)
        faultOnce(pool, tick);
    ASSERT_EQ(pool.breaker(0), BreakerState::Open);

    for (int round = 0; round < 2; ++round) {
        const std::uint64_t probeTick = *pool.earliestProbeTick();
        std::vector<HealthTransition> t;
        auto lease = pool.acquireHealthAware(probeTick, t);
        ASSERT_TRUE(lease.has_value());
        const auto reopen = pool.releaseFaulted(*lease, probeTick + 1);
        ASSERT_EQ(pool.breaker(0), BreakerState::Open);
        ASSERT_FALSE(reopen.empty());
        EXPECT_EQ(reopen.back().cooldownTicks,
                  policy.breakerMaxCooldownTicks);
        EXPECT_EQ(*pool.earliestProbeTick(),
                  probeTick + 1 + policy.breakerMaxCooldownTicks);
    }
    EXPECT_EQ(pool.stats().breakerReopens, 2u);
}

TEST(BackendHealthModel, SlowSuccessesDegradeViaLatencyEwma)
{
    BackendPool pool = fleet(1);
    std::uint64_t tick = 0;
    // Latency factor 8 with alpha 0.25: EWMA jumps 1 -> 2.75 on the
    // first observation, past the degrade factor of 2.
    for (int i = 0; i < 2; ++i) {
        std::vector<HealthTransition> t;
        auto lease = pool.acquireHealthAware(tick, t);
        pool.releaseSuccess(*lease, 8.0, ++tick);
    }
    EXPECT_EQ(pool.health(0), BackendHealth::Degraded);
    EXPECT_GT(pool.latencyEwma(0), pool.policy().latencyDegradeFactor);
    // Breaker stays closed — slowness is not a fault.
    EXPECT_EQ(pool.breaker(0), BreakerState::Closed);
}

TEST(BackendHealthModel, HealthAwareAcquirePrefersHealthy)
{
    BackendPool pool = fleet(3);
    std::uint64_t tick = 0;
    // Degrade backend 0 (it would otherwise win by lowest id).
    for (int i = 0; i < 2; ++i)
        faultOnce(pool, tick);
    ASSERT_EQ(pool.health(0), BackendHealth::Degraded);

    std::vector<HealthTransition> t;
    const auto first = pool.acquireHealthAware(tick, t);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->backendId, 1u); // healthy beats degraded
    const auto second = pool.acquireHealthAware(tick, t);
    EXPECT_EQ(second->backendId, 2u);
    const auto third = pool.acquireHealthAware(tick, t);
    EXPECT_EQ(third->backendId, 0u); // degraded still serves
}

TEST(BackendHealthModel, CalibrationStormDriftsDigestAndDegrades)
{
    BackendPool pool = fleet(2);
    const std::uint64_t before = pool.calibrationDigest(0);
    const std::uint64_t other = pool.calibrationDigest(1);
    pool.applyCalibrationStorm(0, 3, 5);
    EXPECT_NE(pool.calibrationDigest(0), before);
    EXPECT_EQ(pool.calibrationDigest(1), other); // isolation holds
    EXPECT_EQ(pool.health(0), BackendHealth::Degraded);
    EXPECT_EQ(pool.stats().stormsApplied, 1u);

    // Equal storm histories give equal digests (pure drift stream).
    BackendPool pool2 = fleet(2);
    pool2.applyCalibrationStorm(0, 3, 99); // tick does not enter drift
    EXPECT_EQ(pool2.calibrationDigest(0), pool.calibrationDigest(0));
}

TEST(BackendHealthModel, RestoreHealthRebuildsBreakerState)
{
    BackendPool pool = fleet(2);
    std::uint64_t tick = 0;
    std::vector<HealthTransition> journal;
    for (int i = 0; i < 4; ++i) {
        // Pin every fault to backend 0, holding other leases so the
        // health-aware pick cannot route around it: the fault streak
        // lands on one machine, like a real outage.
        std::vector<HealthTransition> t;
        std::vector<BackendLease> held;
        while (true) {
            auto lease = pool.acquireHealthAware(tick, t);
            ASSERT_TRUE(lease.has_value());
            if (lease->backendId == 0) {
                ++tick;
                auto tr = pool.releaseFaulted(*lease, tick);
                journal.insert(journal.end(), tr.begin(), tr.end());
                break;
            }
            held.push_back(*lease);
        }
        for (const BackendLease &h : held)
            pool.releaseSuccess(h, 1.0, tick);
    }
    ASSERT_EQ(pool.breaker(0), BreakerState::Open);

    BackendPool resumed = fleet(2);
    for (const HealthTransition &t : journal)
        resumed.restoreHealth(t);
    EXPECT_EQ(resumed.health(0), pool.health(0));
    EXPECT_EQ(resumed.breaker(0), pool.breaker(0));
    EXPECT_EQ(resumed.consecutiveFaults(0), pool.consecutiveFaults(0));
    EXPECT_EQ(resumed.earliestProbeTick(), pool.earliestProbeTick());
    EXPECT_EQ(resumed.health(1), BackendHealth::Healthy);
}

TEST(BackendHealthModel, RestoreHalfOpenBecomesOpen)
{
    // A crash mid-probe loses the probe lease; the restored breaker
    // must be Open (serving its cooldown), never stuck HalfOpen.
    BackendPool pool = fleet(1);
    HealthTransition t;
    t.backendId = 0;
    t.tick = 12;
    t.health = BackendHealth::Quarantined;
    t.breaker = BreakerState::HalfOpen;
    t.cooldownTicks = 16;
    t.breakerOpenedTick = 4;
    pool.restoreHealth(t);
    EXPECT_EQ(pool.breaker(0), BreakerState::Open);
    EXPECT_EQ(pool.health(0), BackendHealth::Quarantined);
    ASSERT_TRUE(pool.earliestProbeTick().has_value());
    EXPECT_EQ(*pool.earliestProbeTick(), 20u);
}

TEST(BackendHealthModel, FaultedLeaseDoesNotAdvanceCalibration)
{
    BackendPool pool = fleet(1);
    const std::uint64_t before = pool.calibrationDigest(0);
    std::uint64_t tick = 0;
    faultOnce(pool, tick);
    EXPECT_EQ(pool.calibrationDigest(0), before);

    // A successful lease does advance it.
    std::vector<HealthTransition> t;
    auto lease = pool.acquireHealthAware(tick, t);
    pool.releaseSuccess(*lease, 1.0, ++tick);
    EXPECT_NE(pool.calibrationDigest(0), before);
}

TEST(BackendHealthModel, LegacyReleaseKeepsHysteresisArithmetic)
{
    // Direct pool users (pre-health API) still feed the same success
    // hysteresis: release() == releaseSuccess(latency 1, tick 0).
    BackendPool pool = fleet(1);
    std::uint64_t tick = 0;
    for (int i = 0; i < 2; ++i)
        faultOnce(pool, tick);
    ASSERT_EQ(pool.health(0), BackendHealth::Degraded);
    for (int i = 0; i < pool.policy().recoverAfterSuccesses; ++i)
        pool.release(pool.acquire());
    EXPECT_EQ(pool.health(0), BackendHealth::Healthy);
}

TEST(BackendHealthModel, StateNamesAreStable)
{
    EXPECT_EQ(backendHealthName(BackendHealth::Quarantined),
              "quarantined");
    EXPECT_EQ(breakerStateName(BreakerState::HalfOpen), "half-open");
}

} // namespace
} // namespace qismet
