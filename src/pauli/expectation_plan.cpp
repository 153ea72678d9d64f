#include "pauli/expectation_plan.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/block_partition.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"

namespace qismet {

namespace {

std::size_t
roundUpToFour(std::size_t n)
{
    return (n + 3) & ~std::size_t{3};
}

/**
 * Per-thread sweep scratch, grown to the largest request the thread
 * has made, so a warm sweep allocates nothing.
 */
double *
threadScratch(std::size_t doubles)
{
    thread_local std::vector<double> buffer;
    if (buffer.size() < doubles)
        buffer.resize(doubles);
    return buffer.data();
}

} // namespace

ExpectationPlan::ExpectationPlan(const PauliSum &hamiltonian)
    : numQubits_(hamiltonian.numQubits())
{
    const auto &terms = hamiltonian.terms();
    coefficients_.reserve(terms.size());
    termLanes_.reserve(terms.size());

    // First-seen xmask order; every term (identity included) lands in
    // exactly one group and owns exactly one lane.
    std::map<std::uint64_t, std::size_t> groupOf;
    for (std::size_t k = 0; k < terms.size(); ++k) {
        const PauliTerm &t = terms[k];
        coefficients_.push_back(t.coefficient);

        const std::uint64_t xmask = t.pauli.xMask();
        auto it = groupOf.find(xmask);
        if (it == groupOf.end()) {
            it = groupOf.emplace(xmask, groupXmasks_.size()).first;
            groupXmasks_.push_back(xmask);
        }

        // i^nY is +1, +i, -1, -i for nY mod 4 = 0..3: real for even nY,
        // and the addend's sign is minus for nY mod 4 = 1 (the +i
        // phase reads -E) and 2.
        const int n_y = t.pauli.countY() & 3;
        termLanes_.push_back(TermLane{it->second, (n_y & 1) != 0,
                                      n_y == 1 || n_y == 2,
                                      t.pauli.zMask()});
    }

    // The kernel's layout: lanes padded to fours. A pad lane sums group
    // 0's D and is never read back.
    const std::size_t num_lanes = roundUpToFour(termLanes_.size());
    laneBase_.assign(num_lanes, 0);
    laneZmasks_.assign(num_lanes, 0);
    laneLowSigns_.assign(kern::kPauliTile * num_lanes, 0);
    for (std::size_t l = 0; l < termLanes_.size(); ++l) {
        const TermLane &lane = termLanes_[l];
        laneBase_[l] = static_cast<std::int32_t>(2 * lane.group +
                                                 (lane.imaginary ? 1 : 0));
        laneZmasks_[l] = lane.zmask;
        for (std::size_t j = 0; j < kern::kPauliTile; ++j) {
            const bool odd = (std::popcount(j & lane.zmask) & 1) != 0;
            laneLowSigns_[j * num_lanes + l] =
                static_cast<std::uint64_t>(lane.negated != odd) << 63;
        }
    }

    // Sampling layout: the measurement grouping plus flat per-group
    // support-mask / coefficient tables, compiled once with the plan.
    measurementGroups_ = groupQubitWise(hamiltonian);
    samplingMasks_.resize(measurementGroups_.size());
    samplingCoefficients_.resize(measurementGroups_.size());
    for (std::size_t gi = 0; gi < measurementGroups_.size(); ++gi) {
        for (std::size_t ti : measurementGroups_[gi].termIndices) {
            samplingMasks_[gi].push_back(terms[ti].pauli.supportMask());
            samplingCoefficients_[gi].push_back(terms[ti].coefficient);
        }
    }
}

kern::PauliLanes
ExpectationPlan::lanes() const
{
    return kern::PauliLanes{.xmasks = groupXmasks_.data(),
                            .numGroups = groupXmasks_.size(),
                            .base = laneBase_.data(),
                            .zmasks = laneZmasks_.data(),
                            .lowSigns = laneLowSigns_.data(),
                            .numLanes = laneBase_.size()};
}

void
ExpectationPlan::termExpectations(const Statevector &state,
                                  double *out) const
{
    if (coefficients_.empty())
        return;
    if (state.numQubits() != numQubits_)
        throw std::invalid_argument(
            "ExpectationPlan::termExpectations: width mismatch");

    const std::span<const Complex> amps = state.amplitudes();
    const std::size_t dim = amps.size();
    const bool simd = simdEnabled();
    const kern::PauliLanes layout = lanes();
    const std::size_t num_lanes = layout.numLanes;
    const std::size_t row_doubles = kern::pauliRowScratch(layout);

    if (dim < intraStateParallelThreshold()) {
        // Serial path: one full-range pass, exactly the below-threshold
        // branch of the legacy ordered reduction.
        double *acc = threadScratch(num_lanes + row_doubles);
        std::fill(acc, acc + num_lanes, 0.0);
        kern::pauliLaneSums(amps, layout, simd, 0, dim, acc,
                            acc + num_lanes);
        std::copy(acc, acc + coefficients_.size(), out);
        return;
    }

    // Blocked path: the fixed 16-block partition of the legacy
    // reduction, with one lane vector per block. The fold below adds
    // all 16 slots per term serially in block order — empty (zero)
    // blocks included — reproducing orderedBlockReduceComplex's
    // grouping at every thread count.
    std::vector<double> partials(kIntraStateBlocks * num_lanes, 0.0);
    ParallelExecutor::global().parallelFor(
        kIntraStateBlocks, [&](std::size_t b) {
            const BlockRange r = intraStateBlock(dim, b);
            if (r.begin >= r.end)
                return;
            kern::pauliLaneSums(amps, layout, simd, r.begin, r.end,
                                partials.data() + b * num_lanes,
                                threadScratch(row_doubles));
        });
    for (std::size_t t = 0; t < coefficients_.size(); ++t) {
        double total = 0.0;
        for (std::size_t b = 0; b < kIntraStateBlocks; ++b)
            total += partials[b * num_lanes + t];
        out[t] = total;
    }
}

void
ExpectationPlan::termExpectations(const DensityMatrix &rho,
                                  double *out) const
{
    if (coefficients_.empty())
        return;
    if (rho.numQubits() != numQubits_)
        throw std::invalid_argument(
            "ExpectationPlan::termExpectations: width mismatch");

    // Re(ρ[i, i^x] · phase) is ±Re or ±Im of the element by the same
    // lane rule as the statevector sweep. One term at a time, in
    // ascending i from +0.0; the sign flips by XOR, as a branch on the
    // parity would mispredict half the time.
    const std::size_t dim = rho.dim();
    for (std::size_t t = 0; t < coefficients_.size(); ++t) {
        const TermLane &lane = termLanes_[t];
        const std::uint64_t xmask = groupXmasks_[lane.group];
        const std::uint64_t negated = lane.negated ? 1 : 0;
        double acc = 0.0;
        for (std::uint64_t i = 0; i < dim; ++i) {
            const Complex r = rho.element(i, i ^ xmask);
            const double v = lane.imaginary ? r.imag() : r.real();
            const auto odd =
                static_cast<std::uint64_t>(std::popcount(i & lane.zmask) & 1);
            acc += std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) ^
                                         ((negated ^ odd) << 63));
        }
        out[t] = acc;
    }
}

double
ExpectationPlan::evaluate(const Statevector &state) const
{
    std::vector<double> sums(coefficients_.size(), 0.0);
    termExpectations(state, sums.data());
    double e = 0.0;
    for (std::size_t k = 0; k < coefficients_.size(); ++k)
        e += coefficients_[k] * sums[k];
    return e;
}

double
ExpectationPlan::evaluate(const DensityMatrix &rho) const
{
    std::vector<double> sums(coefficients_.size(), 0.0);
    termExpectations(rho, sums.data());
    double e = 0.0;
    for (std::size_t k = 0; k < coefficients_.size(); ++k)
        e += coefficients_[k] * sums[k];
    return e;
}

std::shared_ptr<const ExpectationPlan>
compileExpectationPlan(const PauliSum &hamiltonian)
{
    return std::make_shared<const ExpectationPlan>(hamiltonian);
}

} // namespace qismet
