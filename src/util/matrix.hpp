// Small dense linear-algebra kernel for the thermal RC solver.
//
// The thermal networks in this project are tiny (tens of nodes: one per
// floorplan block per layer plus a handful of package nodes), so a simple
// dense row-major matrix with LU factorization is both adequate and easy to
// verify. No attempt is made at cache blocking or SIMD; correctness and
// clarity win at this size.
#pragma once

#include <cstddef>
#include <vector>

namespace renoc {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  /// Creates a rows x cols matrix initialized to zero.
  Matrix(std::size_t rows, std::size_t cols);

  /// Identity matrix of size n.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Element access (bounds-checked via RENOC_CHECK in debug-style builds).
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// Unchecked element access for hot loops.
  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// y = this * x. Requires x.size() == cols().
  std::vector<double> mul(const std::vector<double>& x) const;

  /// C = this * B.
  Matrix mul(const Matrix& b) const;

  /// this += s * B (same shape).
  void add_scaled(const Matrix& b, double s);

  /// Maximum absolute element.
  double max_abs() const;

  /// True if the matrix equals its transpose to within tol.
  bool is_symmetric(double tol) const;

  const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting of a square matrix.
///
/// Factor once, solve many times. Not a production thermal path: the
/// thermal solvers factor with util/sparse's LDL^T, and tests factor
/// RcNetwork::conductance() (plus C/dt) with this as their oracle.
class LuFactorization {
 public:
  /// Factors `a`. Throws renoc::CheckError if `a` is not square or is
  /// numerically singular.
  explicit LuFactorization(const Matrix& a);

  /// Solves A x = b. Requires b.size() == n().
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Solves in place (x is b on entry, solution on exit). Reuses an
  /// internal scratch buffer for the row permutation, so no allocation
  /// happens after the first call; not thread-safe, like the rest of the
  /// library.
  void solve_in_place(std::vector<double>& x) const;

  /// Blocked multi-RHS solve: `x` holds `nrhs` right-hand sides as a
  /// row-major n x nrhs block (RHS j's component i at x[i * nrhs + j]) and
  /// holds the solutions on exit. One traversal of the factor serves all
  /// columns; each column performs exactly the arithmetic of
  /// solve_in_place in the same order, so column j is bit-identical to a
  /// lone solve of that column.
  void solve_multi(std::vector<double>& x, int nrhs) const;

  std::size_t n() const { return n_; }

  /// Sign-adjusted product of U's diagonal (the determinant).
  double determinant() const;

 private:
  std::size_t n_ = 0;
  Matrix lu_;                  // combined L (unit diagonal) and U
  std::vector<std::size_t> perm_;  // row permutation
  int perm_sign_ = 1;
  mutable std::vector<double> scratch_;        // permuted rhs, reused per solve
  mutable std::vector<double> scratch_multi_;  // multi-RHS workspace
};

}  // namespace renoc
