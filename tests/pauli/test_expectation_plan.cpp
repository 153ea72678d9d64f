/**
 * @file
 * Structural tests of ExpectationPlan compilation: xmask grouping and
 * the lane each term is read through.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "pauli/expectation.hpp"
#include "pauli/expectation_plan.hpp"

namespace qismet {
namespace {

/** The i^nY phase as the legacy pauliPhase computed it. */
Complex
referencePhase(int n_y, bool minus)
{
    Complex phase = minus ? Complex(-1.0, 0.0) : Complex(1.0, 0.0);
    switch (n_y & 3) {
      case 0:
        break;
      case 1:
        phase *= Complex(0.0, 1.0);
        break;
      case 2:
        phase *= Complex(-1.0, 0.0);
        break;
      case 3:
        phase *= Complex(0.0, -1.0);
        break;
    }
    return phase;
}

PauliSum
sharedXmaskSum()
{
    // ZZ-type terms (xmask 0), an XX/YY pair on (0,1) (same xmask),
    // and a lone X — 7 terms, 3 distinct xmasks.
    PauliSum h(3);
    h.add(0.5, "IZZ");
    h.add(-0.25, "ZZI");
    h.add(0.125, "ZIZ");
    h.add(0.75, "IXX");
    h.add(-0.5, "IYY");
    h.add(0.3, "XII");
    h.add(1.5, "III");
    return h;
}

TEST(ExpectationPlan, GroupsTermsBySharedXmask)
{
    const PauliSum h = sharedXmaskSum();
    const ExpectationPlan plan(h);

    EXPECT_EQ(plan.numTerms(), 7u);
    // xmask 0 holds IZZ/ZZI/ZIZ/III, the IXX/IYY pair shares one mask,
    // XII is alone.
    EXPECT_EQ(plan.numGroups(), 3u);

    const std::vector<std::uint64_t> &xmasks = plan.groupXmasks();
    EXPECT_EQ(std::set<std::uint64_t>(xmasks.begin(), xmasks.end()).size(),
              xmasks.size())
        << "duplicate group xmask";
    // Every term reads exactly one group (its lane's), the one of its
    // own xmask.
    ASSERT_EQ(plan.termLanes().size(), plan.numTerms());
    std::vector<std::size_t> members(plan.numGroups(), 0);
    for (std::size_t t = 0; t < plan.numTerms(); ++t) {
        const std::size_t g = plan.termLanes()[t].group;
        ASSERT_LT(g, plan.numGroups());
        EXPECT_EQ(xmasks[g], h.terms()[t].pauli.xMask()) << "term " << t;
        ++members[g];
    }
    for (std::size_t g = 0; g < plan.numGroups(); ++g)
        EXPECT_GT(members[g], 0u) << "group " << g << " is empty";
}

TEST(ExpectationPlan, LanesReadTheLegacyPhaseSequence)
{
    Rng rng(2024);
    const char ops[] = {'I', 'X', 'Y', 'Z'};
    PauliSum h(5);
    for (int t = 0; t < 40; ++t) {
        std::string label;
        for (int q = 0; q < 5; ++q)
            label += ops[rng.uniformInt(4)];
        h.add(rng.normal(), label);
    }
    const ExpectationPlan plan(h);
    ASSERT_EQ(plan.termLanes().size(), h.numTerms());
    for (std::size_t t = 0; t < h.numTerms(); ++t) {
        const auto &term = h.terms()[t];
        const auto &lane = plan.termLanes()[t];
        const int n_y = term.pauli.countY();
        EXPECT_EQ(lane.zmask, term.pauli.zMask());
        EXPECT_EQ(plan.groupXmasks()[lane.group], term.pauli.xMask());
        // At even parity the addend is Re(phase · (D + iE)) =
        // Re(phase)·D − Im(phase)·E, so a real phase reads ±D with its
        // own sign and an imaginary one reads ∓E.
        const Complex phase = referencePhase(n_y, false);
        if (lane.imaginary) {
            EXPECT_EQ(phase.real(), 0.0) << "nY=" << n_y;
            EXPECT_EQ(phase.imag(), lane.negated ? 1.0 : -1.0)
                << "nY=" << n_y;
        } else {
            EXPECT_EQ(phase.imag(), 0.0) << "nY=" << n_y;
            EXPECT_EQ(phase.real(), lane.negated ? -1.0 : 1.0)
                << "nY=" << n_y;
        }
    }
}

TEST(ExpectationPlan, CoefficientsKeepOriginalTermOrder)
{
    const PauliSum h = sharedXmaskSum();
    const ExpectationPlan plan(h);
    ASSERT_EQ(plan.coefficients().size(), h.numTerms());
    for (std::size_t k = 0; k < h.numTerms(); ++k)
        EXPECT_EQ(plan.coefficients()[k], h.terms()[k].coefficient);
}

TEST(ExpectationPlan, IdentityTermJoinsXmaskZeroGroup)
{
    PauliSum h(2);
    h.add(2.0, "II");
    h.add(0.5, "ZZ");
    const ExpectationPlan plan(h);
    ASSERT_EQ(plan.numGroups(), 1u);
    EXPECT_EQ(plan.groupXmasks()[0], 0u);
    EXPECT_EQ(plan.termLanes()[1].group, 0u);
    // Identity: zmask 0, +D — its lane sums the norm² walk.
    const auto &identity = plan.termLanes()[0];
    EXPECT_EQ(identity.group, 0u);
    EXPECT_EQ(identity.zmask, 0u);
    EXPECT_FALSE(identity.imaginary);
    EXPECT_FALSE(identity.negated);
}

TEST(ExpectationPlan, SamplingLayoutMatchesMeasurementGroups)
{
    const PauliSum h = sharedXmaskSum();
    const ExpectationPlan plan(h);
    const auto &groups = plan.measurementGroups();
    const auto reference = groupQubitWise(h);
    ASSERT_EQ(groups.size(), reference.size());
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        const auto &masks = plan.samplingMasks(gi);
        const auto &coeffs = plan.samplingCoefficients(gi);
        ASSERT_EQ(masks.size(), groups[gi].termIndices.size());
        ASSERT_EQ(coeffs.size(), groups[gi].termIndices.size());
        for (std::size_t k = 0; k < masks.size(); ++k) {
            const auto &term = h.terms()[groups[gi].termIndices[k]];
            EXPECT_EQ(masks[k], term.pauli.supportMask());
            EXPECT_EQ(coeffs[k], term.coefficient);
        }
    }
}

} // namespace
} // namespace qismet
