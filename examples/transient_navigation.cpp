/**
 * @file
 * A microscope on the QISMET controller: drive it by hand through a
 * hand-crafted transient episode and print every Fig.-8 quantity and
 * every Fig.-9 decision it makes.
 *
 * This example uses the library's low-level pieces directly (estimator,
 * job executor, controller) rather than the integrated QismetVqe
 * runner, which is exactly what you would do to embed QISMET in your
 * own tuning loop.
 */

#include <cstdio>

#include "ansatz/real_amplitudes.hpp"
#include "core/controller.hpp"
#include "hamiltonian/tfim.hpp"
#include "noise/machine_model.hpp"
#include "vqe/job.hpp"

using namespace qismet;

int
main()
{
    // Problem: 4-qubit TFIM, RealAmplitudes ansatz.
    const PauliSum hamiltonian = tfimHamiltonian({.numQubits = 4});
    const RealAmplitudes ansatz_gen(4, 2);
    const Circuit ansatz = ansatz_gen.build();

    EstimatorConfig est_cfg;
    est_cfg.mode = EstimatorMode::Analytic;
    est_cfg.shots = 1 << 16;
    const EnergyEstimator estimator(
        hamiltonian, ansatz, machineModel("guadalupe").staticModel(),
        est_cfg);

    // A hand-crafted transient episode: quiet, then a three-job burst,
    // then quiet again.
    const TransientTrace trace(
        {0.0, 0.0, 0.0, 0.55, 0.70, 0.45, 0.0, 0.0, 0.0, 0.0});
    JobExecutor executor(estimator, trace, /*seed=*/9,
                         /*intra_job_jitter=*/0.005,
                         /*relative_jitter=*/0.1);

    // The controller, with an absolute-style threshold for clarity.
    QismetControllerConfig ctrl_cfg;
    ctrl_cfg.relativeThreshold = 0.10;
    ctrl_cfg.noiseFloor = 0.08;
    ctrl_cfg.mixedEnergy = hamiltonian.identityCoefficient();
    GradientFaithfulController controller(ctrl_cfg);

    // Two parameter points a small step apart play the roles of
    // consecutive VQA iterations.
    Rng rng(5);
    std::vector<double> theta_prev(
        static_cast<std::size_t>(ansatz.numParams()), 0.35);
    std::vector<double> theta_curr = theta_prev;
    for (auto &t : theta_curr)
        t += 0.05 * rng.normal();

    std::printf("ideal E(prev) = %.4f, ideal E(curr) = %.4f\n\n",
                estimator.idealEnergy(theta_prev),
                estimator.idealEnergy(theta_curr));
    std::printf("%-4s %-6s %-9s %-9s %-9s %-9s %-9s %s\n", "job", "tau",
                "E_m(i)", "E_mR(i)", "E_m(i+1)", "T_m", "G_p",
                "decision");

    // Bootstrap: evaluate the "previous" iteration in job 0.
    JobRequest first;
    first.evaluations.push_back(theta_prev);
    const JobResult job0 = executor.execute(first);
    double e_prev = job0.energies[0];
    std::printf("%-4zu %-6.2f %-9.4f %-9s %-9s %-9s %-9s (reference)\n",
                job0.jobIndex, job0.transientIntensity, e_prev, "-", "-",
                "-", "-");

    // Walk through the episode, letting the controller accept/skip.
    while (executor.jobsExecuted() < trace.size()) {
        JobRequest req;
        req.evaluations.push_back(theta_curr); // E_m(i+1)
        req.evaluations.push_back(theta_prev); // E_mR(i), same job
        const JobResult job = executor.execute(req);

        EvalContext ctx;
        ctx.ePrev = e_prev;
        ctx.eCurr = job.energies[0];
        ctx.hasReference = true;
        ctx.eReferenceRerun = job.energies[1];

        const TransientEstimate est = estimateTransient(
            ctx.ePrev, ctx.eReferenceRerun, ctx.eCurr);
        const Decision d = controller.judgeEvaluation(ctx);

        std::printf("%-4zu %-6.2f %-9.4f %-9.4f %-9.4f %-9.4f %-9.4f %s\n",
                    job.jobIndex, job.transientIntensity, ctx.ePrev,
                    ctx.eReferenceRerun, ctx.eCurr, est.transient,
                    est.predictedGradient,
                    d == Decision::Accept ? "ACCEPT" : "SKIP + retry");

        if (d == Decision::Accept) {
            // The accepted point becomes the new reference.
            e_prev = ctx.eCurr;
            theta_prev = theta_curr;
            for (auto &t : theta_curr)
                t += 0.05 * rng.normal();
        }
        // On a skip the same theta_curr is re-executed next job.
    }

    std::printf("\nController skipped %zu of %zu judged evaluations.\n",
                controller.skipsIssued(), controller.judged());
    std::printf("Skips concentrate inside the tau=0.55-0.70 burst: the\n"
                "transient flips the perceived gradient there, and the\n"
                "rerun-based prediction G_p exposes the flip.\n");
    return 0;
}
