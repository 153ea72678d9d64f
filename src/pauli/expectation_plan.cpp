#include "pauli/expectation_plan.hpp"

#include <bit>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/block_partition.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"

namespace qismet {

ExpectationPlan::ExpectationPlan(const PauliSum &hamiltonian)
    : numQubits_(hamiltonian.numQubits()),
      fingerprint_(hamiltonian.fingerprint())
{
    const auto &terms = hamiltonian.terms();
    coefficients_.reserve(terms.size());

    // First-seen xmask order; every term (identity included) lands in
    // exactly one group, so the group-local accumulators tile a
    // numTerms-sized array via groupOffsets_.
    std::map<std::uint64_t, std::size_t> groupOf;
    for (std::size_t k = 0; k < terms.size(); ++k) {
        const PauliTerm &t = terms[k];
        coefficients_.push_back(t.coefficient);

        const std::uint64_t xmask = t.pauli.xMask();
        auto it = groupOf.find(xmask);
        if (it == groupOf.end()) {
            it = groupOf.emplace(xmask, groups_.size()).first;
            groups_.push_back(Group{xmask, {}, {}});
        }
        Group &g = groups_[it->second];

        // Pre-fold the ±i^nY phase constants through the exact op
        // sequence the legacy per-amplitude pauliPhase() executed
        // (start from ±1, multiply by i^nY), so every stored component
        // — signed zeros included — matches what the term-by-term path
        // multiplies with at run time.
        kern::PauliTermSpec spec;
        spec.zmask = t.pauli.zMask();
        Complex plus(1.0, 0.0);
        Complex minus(-1.0, 0.0);
        switch (t.pauli.countY() & 3) {
          case 0:
            break;
          case 1:
            plus *= Complex(0.0, 1.0);
            minus *= Complex(0.0, 1.0);
            break;
          case 2:
            plus *= Complex(-1.0, 0.0);
            minus *= Complex(-1.0, 0.0);
            break;
          case 3:
            plus *= Complex(0.0, -1.0);
            minus *= Complex(0.0, -1.0);
            break;
        }
        spec.phasePlus = plus;
        spec.phaseMinus = minus;
        g.specs.push_back(spec);
        g.termIndices.push_back(k);
    }

    groupOffsets_.reserve(groups_.size());
    std::size_t offset = 0;
    for (const Group &g : groups_) {
        groupOffsets_.push_back(offset);
        offset += g.specs.size();
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
    const std::size_t n = coefficients_.size();

    if (dim < intraStateParallelThreshold()) {
        // Serial path: one full-range sweep per group, exactly the
        // below-threshold branch of the legacy ordered reduction.
        std::vector<double> local(n, 0.0);
        for (std::size_t g = 0; g < groups_.size(); ++g)
            kern::pauliGroupSums(amps, groups_[g].xmask,
                                 groups_[g].specs.data(),
                                 groups_[g].specs.size(), simd, 0, dim,
                                 local.data() + groupOffsets_[g]);
        for (std::size_t g = 0; g < groups_.size(); ++g)
            for (std::size_t k = 0; k < groups_[g].termIndices.size();
                 ++k)
                out[groups_[g].termIndices[k]] =
                    local[groupOffsets_[g] + k];
        return;
    }

    // Blocked path: the fixed 16-block partition of the legacy
    // reduction, with one partial vector per block. Each block sweeps
    // every group over its own unit range; the fold below adds all 16
    // slots per term serially in block order — empty (zero) blocks
    // included — reproducing orderedBlockReduceComplex's grouping at
    // every thread count.
    std::vector<double> partials(kIntraStateBlocks * n, 0.0);
    ParallelExecutor::global().parallelFor(
        kIntraStateBlocks, [&](std::size_t b) {
            const BlockRange r = intraStateBlock(dim, b);
            if (r.begin >= r.end)
                return;
            double *slot = partials.data() + b * n;
            for (std::size_t g = 0; g < groups_.size(); ++g)
                kern::pauliGroupSums(amps, groups_[g].xmask,
                                     groups_[g].specs.data(),
                                     groups_[g].specs.size(), simd,
                                     r.begin, r.end,
                                     slot + groupOffsets_[g]);
        });
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        for (std::size_t k = 0; k < groups_[g].termIndices.size(); ++k) {
            const std::size_t off = groupOffsets_[g] + k;
            double total = 0.0;
            for (std::size_t b = 0; b < kIntraStateBlocks; ++b)
                total += partials[b * n + off];
            out[groups_[g].termIndices[k]] = total;
        }
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

    const std::size_t dim = rho.dim();
    const std::size_t n = coefficients_.size();
    std::vector<double> local(n, 0.0);
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        const Group &grp = groups_[g];
        double *acc = local.data() + groupOffsets_[g];
        for (std::uint64_t i = 0; i < dim; ++i) {
            // One diagonal-band load per group instead of per term.
            const Complex r = rho.element(i, i ^ grp.xmask);
            for (std::size_t k = 0; k < grp.specs.size(); ++k) {
                const int parity =
                    std::popcount(i & grp.specs[k].zmask) & 1;
                const Complex ph = parity ? grp.specs[k].phaseMinus
                                          : grp.specs[k].phasePlus;
                // Re(ρ[i, i^x] · phase), the legacy multiply's real
                // component with its imaginary side dropped.
                acc[k] += r.real() * ph.real() - r.imag() * ph.imag();
            }
        }
    }
    for (std::size_t g = 0; g < groups_.size(); ++g)
        for (std::size_t k = 0; k < groups_[g].termIndices.size(); ++k)
            out[groups_[g].termIndices[k]] = local[groupOffsets_[g] + k];
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

std::shared_ptr<const ExpectationPlan>
ExpectationPlanCache::acquire(const PauliSum &hamiltonian,
                              std::uint64_t tenant_id)
{
    const std::pair<std::uint64_t, std::uint64_t> key{
        tenant_id, hamiltonian.fingerprint()};
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = plans_.find(key);
    if (it != plans_.end()) {
        ++hits_;
        return it->second;
    }
    ++misses_;
    auto plan = std::make_shared<const ExpectationPlan>(hamiltonian);
    plans_.emplace(key, plan);
    return plan;
}

void
ExpectationPlanCache::clear()
{
    // Swap the map out under the lock and let it destruct unlocked:
    // dropping the cache's references must not run arbitrary plan
    // destructors while holding mutex_.
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::shared_ptr<const ExpectationPlan>>
        dropped;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        dropped.swap(plans_);
    }
}

std::size_t
ExpectationPlanCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // The callee is std::map::size on a member container, not a
    // project method; no second project mutex is reachable from here.
    return plans_.size(); // qismet-lint: allow(lock-order)
}

std::uint64_t
ExpectationPlanCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
ExpectationPlanCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

} // namespace qismet
