// A small dense row-major matrix of doubles: the numeric workhorse of the
// from-scratch neural-network library, sized for the small MLPs the
// paper's methods need (inputs of a few hundred, hidden layers of ~128).
// The three products (x W, X^T G, G W^T) run through one register-tiled
// micro-kernel (matrix.cc) in the compile target's vectors, and the
// elementwise passes of a training step run lane-wise (nn/simd.h); both
// compute exactly the bits of the scalar loops they replaced.
#ifndef HFQ_NN_MATRIX_H_
#define HFQ_NN_MATRIX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace hfq {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int64_t rows, int64_t cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows * cols), 0.0) {
    HFQ_CHECK(rows >= 0 && cols >= 0);
  }

  /// Builds a 1 x n row vector from values.
  static Matrix RowVector(const std::vector<double>& values);

  /// Stacks equal-length rows into a (rows.size() x rows[0].size()) batch
  /// matrix (convenience wrapper over StackRows).
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  /// Matrix filled with a constant.
  static Matrix Constant(int64_t rows, int64_t cols, double value);

  /// Xavier/Glorot-uniform initialization (for tanh-style layers).
  static Matrix XavierUniform(int64_t rows, int64_t cols, Rng* rng);

  /// He-normal initialization (for ReLU layers).
  static Matrix HeNormal(int64_t rows, int64_t cols, Rng* rng);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }

  double& At(int64_t r, int64_t c) {
    HFQ_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  double At(int64_t r, int64_t c) const {
    HFQ_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  double& operator()(int64_t r, int64_t c) { return At(r, c); }
  double operator()(int64_t r, int64_t c) const { return At(r, c); }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Reshapes to (rows x cols) and zeroes every element, reusing the
  /// existing allocation when capacity allows — the buffer-recycling step
  /// behind workspace-based forward passes.
  void ResizeZeroed(int64_t rows, int64_t cols);

  /// Sets every element to zero.
  void Zero();

  /// Sets every element to `value`.
  void Fill(double value);

  /// this += other (element-wise; shapes must match).
  void Add(const Matrix& other);

  /// this += scale * other.
  void Axpy(double scale, const Matrix& other);

  /// this *= scale.
  void Scale(double scale);

  /// Element-wise product: this *= other.
  void Hadamard(const Matrix& other);

  /// Sum of all elements.
  double Sum() const;

  /// Frobenius norm squared.
  double SquaredNorm() const;

  /// Extracts row r as a 1 x cols matrix.
  Matrix Row(int64_t r) const;

  /// Copies `row` (1 x cols) into row r.
  void SetRow(int64_t r, const Matrix& row);

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Human-readable dump, for debugging.
  std::string ToString(int max_rows = 8, int max_cols = 8) const;

 private:
  int64_t rows_;
  int64_t cols_;
  std::vector<double> data_;
};

/// Stacks `count` equal-length rows produced by `row_of(i)` (any accessor
/// returning a const std::vector<double>&) into a (count x dim) batch
/// matrix — the assembly step shared by the minibatched training loops.
template <typename RowFn>
Matrix StackRows(int64_t count, int64_t dim, RowFn row_of) {
  Matrix m(count, dim);
  for (int64_t r = 0; r < count; ++r) {
    const std::vector<double>& row = row_of(r);
    HFQ_CHECK(static_cast<int64_t>(row.size()) == dim);
    for (int64_t c = 0; c < dim; ++c) {
      m.At(r, c) = row[static_cast<size_t>(c)];
    }
  }
  return m;
}

/// out = a * b. Shapes: (m x k) * (k x n) -> (m x n). Every product below
/// accumulates each output element from +0.0 over the shared dimension in
/// ascending order, as acc += a * b: the naive triple loop's bits, and a
/// row's result never depends on the other rows of its batch.
Matrix Matmul(const Matrix& a, const Matrix& b);

/// *out = a * b, reusing out's allocation when possible. `out` must not
/// alias a or b.
void MatmulInto(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a^T * b. Shapes: (k x m)^T * (k x n) -> (m x n).
Matrix MatmulTransA(const Matrix& a, const Matrix& b);

/// out = a * b^T. Shapes: (m x k) * (n x k)^T -> (m x n).
Matrix MatmulTransB(const Matrix& a, const Matrix& b);

/// Returns m^T.
Matrix Transposed(const Matrix& m);

/// Sums each column of m into a 1 x cols row vector.
Matrix ColumnSum(const Matrix& m);

/// Adds row vector `row` (1 x cols) to every row of m in place.
void AddRowVectorInPlace(Matrix* m, const Matrix& row);

}  // namespace hfq

#endif  // HFQ_NN_MATRIX_H_
