/**
 * @file
 * Small dense complex matrix type used by the exact Hamiltonian solver,
 * the density-matrix simulator and the measurement-mitigation inverter.
 *
 * This is deliberately a simple row-major container with the handful of
 * operations the library needs (multiply, adjoint, kron, norms) rather
 * than a general linear-algebra package — problem sizes here top out at
 * 2^6 = 64 for states and 64x64 for Hamiltonians.
 */

#ifndef QISMET_COMMON_MATRIX_HPP
#define QISMET_COMMON_MATRIX_HPP

#include <complex>
#include <cstddef>
#include <vector>

namespace qismet {

using Complex = std::complex<double>;

/** Dense row-major complex matrix. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** Zero-filled rows x cols matrix. */
    Matrix(std::size_t rows, std::size_t cols);

    /** Build from a nested initializer-style vector (rows of equal size). */
    static Matrix fromRows(
        const std::vector<std::vector<Complex>> &rows);

    /** n x n identity. */
    static Matrix identity(std::size_t n);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** Element access (no bounds check in release builds). */
    Complex &operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }
    /** Const element access. */
    const Complex &operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** Raw storage (row-major). */
    const std::vector<Complex> &data() const { return data_; }

    Matrix operator+(const Matrix &other) const;
    Matrix operator-(const Matrix &other) const;
    Matrix operator*(const Matrix &other) const;
    Matrix operator*(Complex scalar) const;
    Matrix &operator+=(const Matrix &other);
    Matrix &operator*=(Complex scalar);

    /** Conjugate transpose. */
    Matrix adjoint() const;

    /** Kronecker product this ⊗ other. */
    Matrix kron(const Matrix &other) const;

    /** Trace (must be square). */
    Complex trace() const;

    /** Frobenius norm. */
    double frobeniusNorm() const;

    /** Max |a_ij - b_ij| between two same-shape matrices. */
    double maxAbsDiff(const Matrix &other) const;

    /** True when max |a_ij - a_ji^*| <= tol. */
    bool isHermitian(double tol = 1e-10) const;

    /** True when A * A^dagger == I within tol. */
    bool isUnitary(double tol = 1e-10) const;

    /** Matrix-vector product. */
    std::vector<Complex> apply(const std::vector<Complex> &v) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<Complex> data_;
};

/**
 * Solve the square linear system A x = b by Gaussian elimination with
 * partial pivoting. Used by measurement-error mitigation to invert the
 * confusion matrix. Throws std::runtime_error on (numerically) singular A.
 */
std::vector<double> solveLinear(std::vector<std::vector<double>> a,
                                std::vector<double> b);

} // namespace qismet

#endif // QISMET_COMMON_MATRIX_HPP
