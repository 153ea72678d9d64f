/**
 * @file
 * Transient estimation and transient-free prediction (paper Section 5.1
 * and Fig. 8).
 *
 * Given the previous iteration's accepted energy E_m(i), its rerun in
 * the current job E_mR(i), and the current candidate's energy E_m(i+1):
 *
 *   T_m(i+1) = E_mR(i)  - E_m(i)       (transient estimate)
 *   G_m(i+1) = E_m(i+1) - E_m(i)       (machine gradient)
 *   E_p(i+1) = E_m(i+1) - T_m(i+1)     (transient-free prediction)
 *   G_p(i+1) = E_p(i+1) - E_m(i)       (predicted gradient)
 */

#ifndef QISMET_CORE_TRANSIENT_ESTIMATOR_HPP
#define QISMET_CORE_TRANSIENT_ESTIMATOR_HPP

namespace qismet {

/** All Fig.-8 quantities for one iteration. */
struct TransientEstimate
{
    double machineEnergyPrev = 0.0;    ///< E_m(i)
    double rerunEnergyPrev = 0.0;      ///< E_mR(i)
    double machineEnergyCurr = 0.0;    ///< E_m(i+1)

    double transient = 0.0;            ///< T_m(i+1)
    double machineGradient = 0.0;      ///< G_m(i+1)
    double predictedEnergy = 0.0;      ///< E_p(i+1)
    double predictedGradient = 0.0;    ///< G_p(i+1)
};

/**
 * The Fig.-8 quantities of one iteration: a pure function of its three
 * energies, so it keeps no state a checkpoint would have to carry.
 */
inline TransientEstimate
estimateTransient(double e_prev, double e_rerun_prev, double e_curr)
{
    TransientEstimate est;
    est.machineEnergyPrev = e_prev;
    est.rerunEnergyPrev = e_rerun_prev;
    est.machineEnergyCurr = e_curr;

    est.transient = e_rerun_prev - e_prev;
    est.machineGradient = e_curr - e_prev;
    est.predictedEnergy = e_curr - est.transient;
    est.predictedGradient = est.predictedEnergy - e_prev;
    return est;
}

} // namespace qismet

#endif // QISMET_CORE_TRANSIENT_ESTIMATOR_HPP
