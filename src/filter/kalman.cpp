#include "filter/kalman.hpp"

#include <cmath>
#include <stdexcept>

namespace qismet {

KalmanFilter1D::KalmanFilter1D(KalmanParams params) : params_(params)
{
    // Negated, so that NaN fails too.
    if (!(params_.measurementVariance > 0.0))
        throw std::invalid_argument("KalmanFilter1D: MV must be > 0");
    if (!(params_.processVariance >= 0.0))
        throw std::invalid_argument("KalmanFilter1D: Q must be >= 0");
    if (!(params_.initialVariance > 0.0))
        throw std::invalid_argument("KalmanFilter1D: P0 must be > 0");
    if (!std::isfinite(params_.transition))
        throw std::invalid_argument("KalmanFilter1D: T must be finite");
}

double
KalmanFilter1D::update(double measurement)
{
    if (!initialized_) {
        x_ = measurement;
        p_ = params_.initialVariance;
        initialized_ = true;
        return x_;
    }

    // Predict.
    const double x_pred = params_.transition * x_;
    const double p_pred = params_.transition * params_.transition * p_ +
                          params_.processVariance;

    // Update.
    gain_ = p_pred / (p_pred + params_.measurementVariance);
    x_ = x_pred + gain_ * (measurement - x_pred);
    p_ = (1.0 - gain_) * p_pred;
    return x_;
}

void
KalmanFilter1D::reset()
{
    x_ = 0.0;
    p_ = 0.0;
    gain_ = 0.0;
    initialized_ = false;
}

void
KalmanFilter1D::saveState(Encoder &enc) const
{
    enc.writeF64(x_);
    enc.writeF64(p_);
    enc.writeF64(gain_);
    enc.writeBool(initialized_);
}

void
KalmanFilter1D::loadState(Decoder &dec)
{
    x_ = dec.readF64();
    p_ = dec.readF64();
    gain_ = dec.readF64();
    initialized_ = dec.readBool();
}

} // namespace qismet
