/** @file Tests for FaultPolicy / RetryPolicy configuration objects. */

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "fault/fault_policy.hpp"

namespace qismet {
namespace {

TEST(FaultPolicy, DefaultIsDisabledAndValid)
{
    FaultPolicy policy;
    EXPECT_FALSE(policy.enabled());
    EXPECT_DOUBLE_EQ(policy.totalBaseRate(), 0.0);
    EXPECT_NO_THROW(policy.validate());
}

TEST(FaultPolicy, AnyPositiveRateEnables)
{
    FaultPolicy policy;
    policy.partialRate = 0.01;
    EXPECT_TRUE(policy.enabled());
    EXPECT_DOUBLE_EQ(policy.totalBaseRate(), 0.01);
}

TEST(FaultPolicy, ValidationRejectsBadParameters)
{
    FaultPolicy policy;
    policy.timeoutRate = -0.1;
    EXPECT_THROW(policy.validate(), std::invalid_argument);

    policy = FaultPolicy{};
    policy.errorRate = 1.5;
    EXPECT_THROW(policy.validate(), std::invalid_argument);

    policy = FaultPolicy{};
    policy.burstCoupling = -1.0;
    EXPECT_THROW(policy.validate(), std::invalid_argument);

    policy = FaultPolicy{};
    policy.burstScale = 0.0;
    EXPECT_THROW(policy.validate(), std::invalid_argument);

    policy = FaultPolicy{};
    policy.minShotFraction = 0.0;
    EXPECT_THROW(policy.validate(), std::invalid_argument);

    policy = FaultPolicy{};
    policy.maxFaultProbability = 1.0;
    EXPECT_THROW(policy.validate(), std::invalid_argument);
}

/**
 * Expect validate() to throw std::invalid_argument whose message names
 * `field`.
 */
template <typename Policy>
void
expectRejectedNaming(const Policy &policy, const std::string &field)
{
    try {
        policy.validate();
        ADD_FAILURE() << field << " was accepted";
    }
    catch (const std::invalid_argument &err) {
        EXPECT_NE(std::string(err.what()).find(field), std::string::npos)
            << "message does not name " << field << ": " << err.what();
    }
}

TEST(FaultPolicy, ValidationRejectsNaNNamingTheField)
{
    // A NaN fails every ordered comparison, so only negated range
    // checks catch it.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::pair<const char *, double FaultPolicy::*> fields[] = {
        {"timeoutRate", &FaultPolicy::timeoutRate},
        {"errorRate", &FaultPolicy::errorRate},
        {"partialRate", &FaultPolicy::partialRate},
        {"referenceLossRate", &FaultPolicy::referenceLossRate},
        {"burstCoupling", &FaultPolicy::burstCoupling},
        {"burstScale", &FaultPolicy::burstScale},
        {"minShotFraction", &FaultPolicy::minShotFraction},
        {"maxFaultProbability", &FaultPolicy::maxFaultProbability},
    };
    for (const auto &[name, member] : fields) {
        FaultPolicy policy;
        policy.*member = nan;
        expectRejectedNaming(policy, name);
    }
}

TEST(FaultPolicy, KindNamesAreDistinct)
{
    EXPECT_EQ(faultKindName(FaultKind::None), "none");
    EXPECT_EQ(faultKindName(FaultKind::JobTimeout), "timeout");
    EXPECT_EQ(faultKindName(FaultKind::JobError), "error");
    EXPECT_EQ(faultKindName(FaultKind::PartialResult), "partial");
    EXPECT_EQ(faultKindName(FaultKind::ReferenceLoss), "reference-loss");
}

TEST(RetryPolicy, BackoffIsBoundedExponential)
{
    RetryPolicy retry;
    retry.baseBackoffSeconds = 2.0;
    retry.backoffMultiplier = 2.0;
    retry.maxBackoffSeconds = 10.0;

    EXPECT_DOUBLE_EQ(retry.backoffSecondsFor(0), 2.0);
    EXPECT_DOUBLE_EQ(retry.backoffSecondsFor(1), 4.0);
    EXPECT_DOUBLE_EQ(retry.backoffSecondsFor(2), 8.0);
    // Capped from here on.
    EXPECT_DOUBLE_EQ(retry.backoffSecondsFor(3), 10.0);
    EXPECT_DOUBLE_EQ(retry.backoffSecondsFor(20), 10.0);
}

TEST(RetryPolicy, BackoffIsMonotoneNonDecreasing)
{
    RetryPolicy retry;
    retry.baseBackoffSeconds = 0.5;
    retry.backoffMultiplier = 1.7;
    retry.maxBackoffSeconds = 42.0;
    double prev = 0.0;
    for (int attempt = 0; attempt < 30; ++attempt) {
        const double b = retry.backoffSecondsFor(attempt);
        EXPECT_GE(b, prev);
        EXPECT_LE(b, retry.maxBackoffSeconds);
        prev = b;
    }
}

TEST(RetryPolicy, ValidationRejectsBadParameters)
{
    RetryPolicy retry;
    retry.maxRetries = 0;
    EXPECT_THROW(retry.validate(), std::invalid_argument);

    retry = RetryPolicy{};
    retry.baseBackoffSeconds = -1.0;
    EXPECT_THROW(retry.validate(), std::invalid_argument);

    retry = RetryPolicy{};
    retry.backoffMultiplier = 0.5;
    EXPECT_THROW(retry.validate(), std::invalid_argument);

    retry = RetryPolicy{};
    retry.maxBackoffSeconds = 0.1; // below the 2.0 default base
    EXPECT_THROW(retry.validate(), std::invalid_argument);

    EXPECT_THROW(RetryPolicy{}.backoffSecondsFor(-1),
                 std::invalid_argument);
}

TEST(RetryPolicy, ValidationRejectsNaNNamingTheField)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::pair<const char *, double RetryPolicy::*> fields[] = {
        {"baseBackoffSeconds", &RetryPolicy::baseBackoffSeconds},
        {"maxBackoffSeconds", &RetryPolicy::maxBackoffSeconds},
        {"backoffMultiplier", &RetryPolicy::backoffMultiplier},
    };
    for (const auto &[name, member] : fields) {
        RetryPolicy retry;
        retry.*member = nan;
        expectRejectedNaming(retry, name);
    }
}

} // namespace
} // namespace qismet
