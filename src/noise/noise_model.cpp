#include "noise/noise_model.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "circuit/metrics.hpp"
#include "common/format_double.hpp"
#include "sim/kraus.hpp"

namespace qismet {

namespace {

// The comparisons are negated so that a NaN fails them.

void
requireProbability(double v, const char *field)
{
    if (!(v >= 0.0 && v <= 1.0))
        throw std::invalid_argument(std::string("StaticNoiseModel: ") +
                                    field + " = " + formatDouble(v) +
                                    " is outside [0, 1]");
}

void
requirePositive(double v, const char *field)
{
    if (!(v > 0.0))
        throw std::invalid_argument(std::string("StaticNoiseModel: ") +
                                    field + " = " + formatDouble(v) +
                                    " must be > 0");
}

} // namespace

StaticNoiseModel::StaticNoiseModel(StaticNoiseParams params)
    : params_(params)
{
    requireProbability(params_.p1q, "p1q");
    requireProbability(params_.p2q, "p2q");
    requireProbability(params_.readoutP10, "readoutP10");
    requireProbability(params_.readoutP01, "readoutP01");
    requirePositive(params_.t1Us, "t1Us");
    requirePositive(params_.t2Us, "t2Us");
    if (params_.t2Us > 2.0 * params_.t1Us)
        throw std::invalid_argument("StaticNoiseModel: t2Us = " +
                                    formatDouble(params_.t2Us) +
                                    " exceeds 2 * t1Us");
}

std::vector<ReadoutError>
StaticNoiseModel::readoutErrors(int num_qubits) const
{
    std::vector<ReadoutError> out(static_cast<std::size_t>(num_qubits));
    for (auto &r : out) {
        r.p10 = params_.readoutP10;
        r.p01 = params_.readoutP01;
    }
    return out;
}

void
StaticNoiseModel::runNoisy(DensityMatrix &rho, const Circuit &circuit,
                           const std::vector<double> &params,
                           double t1_scale) const
{
    if (t1_scale <= 0.0)
        throw std::invalid_argument("runNoisy: t1_scale must be > 0");

    const double t1_ns = params_.t1Us * 1e3 * t1_scale;
    const double t2_ns = params_.t2Us * 1e3 * t1_scale;

    const KrausChannel dep1 = KrausChannel::depolarizing1q(params_.p1q);
    const KrausChannel dep2 = KrausChannel::depolarizing2q(params_.p2q);
    const KrausChannel relax1 = KrausChannel::thermalRelaxation(
        t1_ns, t2_ns, params_.gate1qNs);
    const KrausChannel relax2 = KrausChannel::thermalRelaxation(
        t1_ns, t2_ns, params_.gate2qNs);

    for (const Gate &g : circuit.gates()) {
        rho.applyGate(g, params);
        if (gateArity(g.type) == 2) {
            rho.applyChannel2q(g.qubits[0], g.qubits[1], dep2);
            rho.applyChannel1q(g.qubits[0], relax2);
            rho.applyChannel1q(g.qubits[1], relax2);
        } else {
            rho.applyChannel1q(g.qubits[0], dep1);
            rho.applyChannel1q(g.qubits[0], relax1);
        }
    }
}

double
StaticNoiseModel::survivalFactor(const Circuit &circuit,
                                 double t1_scale) const
{
    if (t1_scale <= 0.0)
        throw std::invalid_argument("survivalFactor: t1_scale must be > 0");

    const CircuitMetrics m = computeMetrics(circuit);
    double f = std::pow(1.0 - params_.p1q, m.oneQubitGates) *
               std::pow(1.0 - params_.p2q, m.twoQubitGates);

    const double duration_ns =
        estimateDurationNs(circuit, params_.gate1qNs, params_.gate2qNs);
    const double t1_ns = params_.t1Us * 1e3 * t1_scale;
    const double t2_ns = params_.t2Us * 1e3 * t1_scale;
    const double per_qubit =
        std::exp(-duration_ns * 0.5 * (1.0 / t1_ns + 1.0 / t2_ns));
    f *= std::pow(per_qubit, m.numQubits);
    return f;
}

} // namespace qismet
