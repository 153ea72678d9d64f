#include "common/matrix.hpp"

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace qismet {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, Complex(0.0, 0.0))
{
}

Matrix
Matrix::fromRows(const std::vector<std::vector<Complex>> &rows)
{
    if (rows.empty())
        return Matrix();
    Matrix m(rows.size(), rows[0].size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        if (rows[r].size() != m.cols_)
            throw std::invalid_argument("Matrix::fromRows: ragged rows");
        for (std::size_t c = 0; c < m.cols_; ++c)
            m(r, c) = rows[r][c];
    }
    return m;
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = Complex(1.0, 0.0);
    return m;
}

Matrix
Matrix::operator+(const Matrix &other) const
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        throw std::invalid_argument("Matrix::operator+: shape mismatch");
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] + other.data_[i];
    return out;
}

Matrix
Matrix::operator-(const Matrix &other) const
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        throw std::invalid_argument("Matrix::operator-: shape mismatch");
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] - other.data_[i];
    return out;
}

Matrix
Matrix::operator*(const Matrix &other) const
{
    if (cols_ != other.rows_)
        throw std::invalid_argument("Matrix::operator*: shape mismatch");
    Matrix out(rows_, other.cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const Complex a = (*this)(r, k);
            if (a == Complex(0.0, 0.0))
                continue;
            for (std::size_t c = 0; c < other.cols_; ++c)
                out(r, c) += a * other(k, c);
        }
    }
    return out;
}

Matrix
Matrix::operator*(Complex scalar) const
{
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] * scalar;
    return out;
}

Matrix &
Matrix::operator+=(const Matrix &other)
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        throw std::invalid_argument("Matrix::operator+=: shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
    return *this;
}

Matrix &
Matrix::operator*=(Complex scalar)
{
    for (auto &x : data_)
        x *= scalar;
    return *this;
}

Matrix
Matrix::adjoint() const
{
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            out(c, r) = std::conj((*this)(r, c));
    return out;
}

Matrix
Matrix::kron(const Matrix &other) const
{
    Matrix out(rows_ * other.rows_, cols_ * other.cols_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c) {
            const Complex a = (*this)(r, c);
            if (a == Complex(0.0, 0.0))
                continue;
            for (std::size_t r2 = 0; r2 < other.rows_; ++r2)
                for (std::size_t c2 = 0; c2 < other.cols_; ++c2)
                    out(r * other.rows_ + r2, c * other.cols_ + c2) =
                        a * other(r2, c2);
        }
    return out;
}

Complex
Matrix::trace() const
{
    if (rows_ != cols_)
        throw std::invalid_argument("Matrix::trace: not square");
    Complex t(0.0, 0.0);
    for (std::size_t i = 0; i < rows_; ++i)
        t += (*this)(i, i);
    return t;
}

double
Matrix::frobeniusNorm() const
{
    double s = 0.0;
    for (const auto &x : data_)
        s += std::norm(x);
    return std::sqrt(s);
}

double
Matrix::maxAbsDiff(const Matrix &other) const
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        throw std::invalid_argument("Matrix::maxAbsDiff: shape mismatch");
    double m = 0.0;
    for (std::size_t i = 0; i < data_.size(); ++i)
        m = std::max(m, std::abs(data_[i] - other.data_[i]));
    return m;
}

bool
Matrix::isHermitian(double tol) const
{
    if (rows_ != cols_)
        return false;
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = r; c < cols_; ++c)
            if (std::abs((*this)(r, c) - std::conj((*this)(c, r))) > tol)
                return false;
    return true;
}

bool
Matrix::isUnitary(double tol) const
{
    if (rows_ != cols_)
        return false;
    const Matrix prod = (*this) * adjoint();
    return prod.maxAbsDiff(identity(rows_)) <= tol;
}

std::vector<Complex>
Matrix::apply(const std::vector<Complex> &v) const
{
    if (v.size() != cols_)
        throw std::invalid_argument("Matrix::apply: size mismatch");
    std::vector<Complex> out(rows_, Complex(0.0, 0.0));
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            out[r] += (*this)(r, c) * v[c];
    return out;
}

std::vector<double>
solveLinear(std::vector<std::vector<double>> a, std::vector<double> b)
{
    const std::size_t n = b.size();
    if (a.size() != n)
        throw std::invalid_argument("solveLinear: shape mismatch");

    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivot.
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r)
            if (std::abs(a[r][col]) > std::abs(a[pivot][col]))
                pivot = r;
        if (std::abs(a[pivot][col]) < 1e-14)
            throw std::runtime_error("solveLinear: singular matrix");
        std::swap(a[col], a[pivot]);
        std::swap(b[col], b[pivot]);

        for (std::size_t r = col + 1; r < n; ++r) {
            const double f = a[r][col] / a[col][col];
            if (f == 0.0)
                continue;
            for (std::size_t c = col; c < n; ++c)
                a[r][c] -= f * a[col][c];
            b[r] -= f * b[col];
        }
    }

    std::vector<double> x(n, 0.0);
    for (std::size_t ri = n; ri-- > 0;) {
        double s = b[ri];
        for (std::size_t c = ri + 1; c < n; ++c)
            s -= a[ri][c] * x[c];
        x[ri] = s / a[ri][ri];
    }
    return x;
}

} // namespace qismet
