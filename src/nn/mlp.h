// A sequential multi-layer perceptron: the network architecture used by
// every learned component in this library (policy heads, value baselines,
// reward predictors).
#ifndef HFQ_NN_MLP_H_
#define HFQ_NN_MLP_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "util/status.h"

namespace hfq {

/// Hidden-layer activation choice.
enum class Activation { kRelu, kTanh, kSigmoid };

/// Architecture description for BuildMlp.
struct MlpConfig {
  int64_t input_dim = 0;
  std::vector<int64_t> hidden_dims;
  int64_t output_dim = 0;
  Activation activation = Activation::kRelu;
};

class Mlp;

/// Outputs of the network forwards run through one workspace while an
/// MlpMemoScope is open on it, keyed by (network, exact bits of the input
/// row). Mlp::ForwardInto fills and reads it; nothing else should. A
/// lookup hashes the row word by word and then compares the whole row, so
/// a hash collision never aliases two rows. Rows live in flat buffers that
/// are cleared, not freed, when a scope opens or closes, so a search
/// allocates nothing per entry once the buffers have grown. The rows held
/// are bounded by kMaxDoubles, so a search of any width grows, and leaves
/// on its workspace, buffers of a few MiB at most.
struct MlpMemo {
  /// Bound on the memoized rows' doubles, inputs and outputs (4 MiB). A
  /// call whose rows could take the memo past it forwards without reading
  /// or writing the memo.
  static constexpr int64_t kMaxDoubles = int64_t{1} << 19;

  bool open = false;

  /// Word-wise hash of `row` (`dim` doubles) under `net`.
  static uint64_t Hash(const Mlp* net, const double* row, int64_t dim);
  /// Index of the entry holding `row` for `net`, or -1.
  int64_t Find(const Mlp* net, const double* row, int64_t dim,
               uint64_t hash) const;
  /// Adds an entry for (`net`, `row`) and returns its index; its
  /// `out_dim` output doubles (at Output(index)) are the caller's to fill.
  int64_t Insert(const Mlp* net, const double* row, int64_t dim,
                 int64_t out_dim, uint64_t hash);
  const double* Key(int64_t entry) const {
    return keys_.data() + entries_[static_cast<size_t>(entry)].key;
  }
  double* Output(int64_t entry) {
    return values_.data() + entries_[static_cast<size_t>(entry)].value;
  }
  /// Number of memoized rows, over all networks.
  int64_t size() const { return static_cast<int64_t>(entries_.size()); }
  /// Whether `rows` more rows of `row_doubles` (input and output) fit
  /// under kMaxDoubles.
  bool HasRoom(int64_t rows, int64_t row_doubles) const {
    return static_cast<int64_t>(keys_.size() + values_.size()) +
               rows * row_doubles <=
           kMaxDoubles;
  }
  /// Drops every entry (buffers keep their capacity).
  void Clear();

  /// Per-call scratch of ForwardInto: each input row's entry, the entries
  /// the call created, and the batch of rows it still has to forward.
  std::vector<int64_t> row_entries;
  std::vector<int64_t> new_entries;
  Matrix missing;

 private:
  struct Entry {
    const Mlp* net = nullptr;
    uint64_t hash = 0;
    size_t key = 0;    ///< Offset of the input row in keys_.
    size_t value = 0;  ///< Offset of the output row in values_.
  };
  void Grow();

  std::vector<Entry> entries_;
  std::vector<double> keys_;
  std::vector<double> values_;
  /// Open-addressing table of entry indices (-1 = empty), power-of-two
  /// size, at most half full.
  std::vector<int32_t> slots_;
};

/// Caller-owned activation storage for thread-safe forward passes. One
/// workspace per concurrent caller; buffers grow on first use and are
/// recycled across calls.
struct MlpWorkspace {
  /// activations[i] holds the output of layer i from the last forward the
  /// network actually ran; the output ForwardInto returns is
  /// activations.back(), overwritten on every call.
  std::vector<Matrix> activations;
  /// Counting hook: real network invocations through this workspace. A
  /// ForwardInto/ForwardBatchInto call that forwards any rows counts once
  /// however many rows it carries; one that the memo serves entirely
  /// counts nothing. The search tests bound forwards per round on this.
  int64_t forward_calls = 0;
  /// Rows actually forwarded through this workspace (memo hits excluded).
  int64_t forward_rows = 0;
  /// Outputs memoized while an MlpMemoScope is open on this workspace.
  MlpMemo memo;
};

/// Memoizes network outputs on `workspace` for the object's lifetime —
/// one plan search. Inside the scope a row that the same network already
/// evaluated through this workspace is copied from the memo instead of
/// forwarded again. The memo is cleared when the scope opens and when it
/// closes, so no entry outlives the search or survives a weight update;
/// forwards outside any scope neither read nor write it. At most one scope
/// may be open on a workspace (a second is a check failure).
class MlpMemoScope {
 public:
  explicit MlpMemoScope(MlpWorkspace* workspace);
  ~MlpMemoScope();
  MlpMemoScope(const MlpMemoScope&) = delete;
  MlpMemoScope& operator=(const MlpMemoScope&) = delete;

 private:
  MlpWorkspace* workspace_;
};

/// A stack of layers trained with manual backprop.
class Mlp {
 public:
  Mlp() = default;

  /// Builds `input -> [hidden, act]* -> output` with linear output head.
  Mlp(const MlpConfig& config, Rng* rng);

  Mlp(const Mlp& other);
  Mlp& operator=(const Mlp& other);
  Mlp(Mlp&&) = default;
  Mlp& operator=(Mlp&&) = default;

  /// Forward pass over a (batch x input_dim) matrix; caches the whole
  /// batch's activations for Backward. Training loops should assemble their
  /// minibatch into one matrix and call this once, not once per row.
  Matrix Forward(const Matrix& input);

  /// Thread-safe forward pass: activations are written into the
  /// caller-owned `workspace` instead of the per-layer Backward caches, so
  /// any number of threads may run inference concurrently against one
  /// frozen network (no Backward may be driven from this path). Returns the
  /// output matrix inside the workspace; it belongs to the caller, who may
  /// overwrite it, until the workspace's next use. Arithmetic is identical
  /// to Forward — results are bit-for-bit the same. While an MlpMemoScope
  /// is open on the workspace, rows this network already evaluated in the
  /// scope are copied from the memo, the rest are forwarded together as
  /// one batch, and a call with every row memoized forwards nothing.
  Matrix& ForwardInto(const Matrix& input, MlpWorkspace* workspace) const;

  /// Batched frontier forward: N candidate states stacked as the rows of
  /// `inputs` (N x input_dim) evaluated in ONE network invocation,
  /// returning N rows of logits/values inside the workspace. Row i of the
  /// result is bit-identical to ForwardInto of row i alone, whichever
  /// other rows share its batch — every kernel on the inference path keeps
  /// per-row summation order independent of the batch (unit-asserted in
  /// nn_test) — so search code may batch any frontier, and the memo may
  /// serve any row from any earlier batch, without changing which plan
  /// wins. Same threading and ownership contract as ForwardInto.
  Matrix& ForwardBatchInto(const Matrix& inputs,
                           MlpWorkspace* workspace) const;

  /// Backward pass from dLoss/dOutput (batch x output_dim, row-aligned with
  /// the last Forward); accumulates parameter gradients summed over the
  /// batch. Returns dLoss/dInput when `need_input_grad` is true; by default
  /// the first layer's input gradient — which no trainer uses — is skipped
  /// and an empty matrix is returned.
  Matrix Backward(const Matrix& grad_output, bool need_input_grad = false);

  /// All trainable parameter matrices, in layer order.
  std::vector<Matrix*> Params();

  /// All gradient matrices, parallel to Params().
  std::vector<Matrix*> Grads();

  /// Zeroes accumulated gradients.
  void ZeroGrads();

  /// Number of scalar parameters.
  int64_t ParameterCount();

  /// Copies weights from a same-architecture network.
  void CopyWeightsFrom(Mlp& other);

  /// Soft update: theta <- (1 - tau) * theta + tau * theta_other.
  void SoftUpdateFrom(Mlp& other, double tau);

  /// Copies weights layer-by-layer from `other` wherever shapes match;
  /// leaves mismatched layers untouched. Returns the number of parameter
  /// matrices copied. This implements the paper's transfer-learning option
  /// (Section 5.2): reuse later layers when the input featurization changes.
  int64_t TransferMatchingWeightsFrom(Mlp& other);

  /// Writes architecture + weights in a plain-text format.
  Status Save(std::ostream& out);

  /// Restores a network saved with Save.
  static Result<Mlp> Load(std::istream& in);

  const MlpConfig& config() const { return config_; }
  int64_t num_layers() const { return static_cast<int64_t>(layers_.size()); }

 private:
  /// The layer-by-layer forward of every row of `input`, counted.
  Matrix& ForwardLayers(const Matrix& input, MlpWorkspace* workspace) const;

  MlpConfig config_;
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace hfq

#endif  // HFQ_NN_MLP_H_
