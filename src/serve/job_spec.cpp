#include "serve/job_spec.hpp"

#include <stdexcept>

#include "apps/applications.hpp"
#include "common/atomic_file.hpp"
#include "hamiltonian/h2_molecule.hpp"
#include "noise/machine_model.hpp"
#include "qaoa/maxcut.hpp"
#include "qaoa/qaoa_ansatz.hpp"

namespace qismet {

void
ServeJobSpec::validate() const
{
    if (totalJobs == 0)
        throw std::invalid_argument("ServeJobSpec: zero job budget");
    if (snapshotEveryIters == 0)
        throw std::invalid_argument(
            "ServeJobSpec: zero snapshot cadence");
    if (kind == WorkloadKind::TfimApp && (appIndex < 1 || appIndex > 6))
        throw std::invalid_argument(
            "ServeJobSpec: appIndex must be in 1..6");
    for (std::size_t i = 0; i < crashPlan.size(); ++i) {
        if (crashPlan[i] == 0)
            throw std::invalid_argument(
                "ServeJobSpec: crashPlan entries must be positive");
        if (i > 0 && crashPlan[i] <= crashPlan[i - 1])
            throw std::invalid_argument(
                "ServeJobSpec: crashPlan must be strictly increasing");
    }
    // Negated, so that NaN fails too.
    if (!(deadlineSimSeconds >= 0.0))
        throw std::invalid_argument(
            "ServeJobSpec: deadlineSimSeconds must be a number >= 0");
}

void
ServeJobSpec::encode(Encoder &enc) const
{
    enc.writeU64(tenantId);
    enc.writeI64(priority);
    enc.writeU8(static_cast<std::uint8_t>(kind));
    enc.writeI64(appIndex);
    enc.writeU64(seed);
    enc.writeU64(totalJobs);
    enc.writeU32(static_cast<std::uint32_t>(scheme));
    enc.writeBool(withFaults);
    enc.writeU64(snapshotEveryIters);
    enc.writeU64(crashPlan.size());
    for (std::uint64_t it : crashPlan)
        enc.writeU64(it);
    enc.writeF64(deadlineSimSeconds);
    enc.writeU64(migrationBudget);
}

ServeJobSpec
ServeJobSpec::decode(Decoder &dec)
{
    ServeJobSpec spec;
    spec.tenantId = dec.readU64();
    spec.priority = checkedInt<int>("priority", dec.readI64());
    spec.kind = checkedEnum("kind", dec.readU8(), WorkloadKind::QaoaRing);
    spec.appIndex = checkedInt<int>("appIndex", dec.readI64());
    spec.seed = dec.readU64();
    spec.totalJobs = static_cast<std::size_t>(dec.readU64());
    spec.scheme = checkedEnum("scheme", dec.readU32(), Scheme::Kalman);
    spec.withFaults = dec.readBool();
    spec.snapshotEveryIters = static_cast<std::size_t>(dec.readU64());
    // No reserve: a hostile count must end in SerialError when the
    // bytes run out, not in a huge allocation.
    const std::uint64_t n = dec.readU64();
    for (std::uint64_t i = 0; i < n; ++i)
        spec.crashPlan.push_back(dec.readU64());
    spec.deadlineSimSeconds = dec.readF64();
    spec.migrationBudget = dec.readU64();
    spec.validate();
    return spec;
}

std::uint64_t
ServeJobSpec::digest() const
{
    Encoder enc;
    encode(enc);
    return fnv1a64(enc.bytes());
}

QismetVqe
buildRunner(const ServeJobSpec &spec)
{
    spec.validate();
    switch (spec.kind) {
      case WorkloadKind::H2Vqe: {
        const H2Problem prob = h2Problem(0.735);
        return QismetVqe(prob.hamiltonian,
                         makeAnsatz("SU2", 4, 3)->build(),
                         machineModel("guadalupe"), prob.fciEnergy);
      }
      case WorkloadKind::TfimApp:
        return application(spec.appIndex).makeRunner();
      case WorkloadKind::QaoaRing: {
        const MaxCutProblem problem = MaxCutProblem::ring(6);
        const QaoaAnsatz ansatz(problem, 3);
        return QismetVqe(problem.costHamiltonian(), ansatz.build(),
                         machineModel("guadalupe"),
                         -problem.maxCutValue());
      }
    }
    throw std::invalid_argument("buildRunner: unknown workload kind");
}

QismetVqeConfig
buildRunConfig(const ServeJobSpec &spec)
{
    spec.validate();
    QismetVqeConfig cfg;
    cfg.totalJobs = spec.totalJobs;
    cfg.seed = spec.seed;
    cfg.scheme = spec.scheme;
    cfg.snapshotEveryIters = spec.snapshotEveryIters;
    if (spec.kind == WorkloadKind::QaoaRing) {
        // QAOA wants small positive angles and gentler SPSA gains; the
        // values are the qaoa-maxcut golden construction.
        cfg.initialTheta = {1.2, 2.2, 2.0, 0.5, 1.2, 2.0};
        cfg.spsaInitialStep = 0.10;
        cfg.spsaPerturbation = 0.05;
    }
    if (spec.withFaults) {
        // The tfim-vqe-faults golden's mixed 6% fault load.
        cfg.faults.timeoutRate = 0.02;
        cfg.faults.errorRate = 0.01;
        cfg.faults.partialRate = 0.02;
        cfg.faults.referenceLossRate = 0.01;
        cfg.faults.burstCoupling = 1.0;
    }
    cfg.deadlineSimSeconds = spec.deadlineSimSeconds;
    return cfg;
}

} // namespace qismet
