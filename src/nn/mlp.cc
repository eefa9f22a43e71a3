#include "nn/mlp.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>

#include "util/check.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace hfq {
namespace {

std::unique_ptr<Layer> MakeActivation(Activation act) {
  switch (act) {
    case Activation::kRelu:
      return std::make_unique<Relu>();
    case Activation::kTanh:
      return std::make_unique<TanhLayer>();
    case Activation::kSigmoid:
      return std::make_unique<Sigmoid>();
  }
  HFQ_CHECK_MSG(false, "unknown activation");
  return nullptr;
}

const char* ActivationName(Activation act) {
  switch (act) {
    case Activation::kRelu:
      return "relu";
    case Activation::kTanh:
      return "tanh";
    case Activation::kSigmoid:
      return "sigmoid";
  }
  return "?";
}

Result<Activation> ActivationFromName(const std::string& name) {
  if (name == "relu") return Activation::kRelu;
  if (name == "tanh") return Activation::kTanh;
  if (name == "sigmoid") return Activation::kSigmoid;
  return Status::InvalidArgument("unknown activation: " + name);
}

}  // namespace

Mlp::Mlp(const MlpConfig& config, Rng* rng) : config_(config) {
  HFQ_CHECK(config.input_dim > 0);
  HFQ_CHECK(config.output_dim > 0);
  int64_t prev = config.input_dim;
  for (int64_t h : config.hidden_dims) {
    HFQ_CHECK(h > 0);
    layers_.push_back(std::make_unique<Linear>(prev, h, rng));
    layers_.push_back(MakeActivation(config.activation));
    prev = h;
  }
  layers_.push_back(std::make_unique<Linear>(prev, config.output_dim, rng));
}

Mlp::Mlp(const Mlp& other) : config_(other.config_) {
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) layers_.push_back(layer->Clone());
}

Mlp& Mlp::operator=(const Mlp& other) {
  if (this == &other) return *this;
  config_ = other.config_;
  layers_.clear();
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) layers_.push_back(layer->Clone());
  return *this;
}

Matrix Mlp::Forward(const Matrix& input) {
  HFQ_CHECK(!layers_.empty());
  HFQ_CHECK(input.cols() == config_.input_dim);
  Matrix x = input;
  for (auto& layer : layers_) x = layer->Forward(x);
  return x;
}

Matrix& Mlp::ForwardLayers(const Matrix& input,
                           MlpWorkspace* workspace) const {
  workspace->forward_calls += 1;
  workspace->forward_rows += input.rows();
  workspace->activations.resize(layers_.size());
  const Matrix* x = &input;
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->ForwardInto(*x, &workspace->activations[i]);
    x = &workspace->activations[i];
  }
  return workspace->activations.back();
}

Matrix& Mlp::ForwardInto(const Matrix& input, MlpWorkspace* workspace) const {
  HFQ_CHECK(!layers_.empty());
  HFQ_CHECK(workspace != nullptr);
  HFQ_CHECK(input.cols() == config_.input_dim);
  const int64_t rows = input.rows();
  const int64_t in_dim = config_.input_dim;
  const int64_t out_dim = config_.output_dim;
  MlpMemo& memo = workspace->memo;
  if (!memo.open || !memo.HasRoom(rows, in_dim + out_dim)) {
    return ForwardLayers(input, workspace);
  }

  // Resolve every row to a memo entry. A row not seen before gets a new,
  // still unfilled entry, which a later copy of it in this batch finds, so
  // each distinct row is forwarded once.
  const size_t in_bytes = static_cast<size_t>(in_dim) * sizeof(double);
  const size_t out_bytes = static_cast<size_t>(out_dim) * sizeof(double);
  memo.row_entries.resize(static_cast<size_t>(rows));
  memo.new_entries.clear();
  for (int64_t r = 0; r < rows; ++r) {
    const double* row = input.data() + r * in_dim;
    const uint64_t hash = MlpMemo::Hash(this, row, in_dim);
    int64_t entry = memo.Find(this, row, in_dim, hash);
    if (entry < 0) {
      entry = memo.Insert(this, row, in_dim, out_dim, hash);
      memo.new_entries.push_back(entry);
    }
    memo.row_entries[static_cast<size_t>(r)] = entry;
  }

  // Forward the new rows as one batch and memoize their outputs. Row
  // results do not depend on the batch that carries them, so a memoized
  // row is bit-identical to forwarding it here.
  const int64_t fresh = static_cast<int64_t>(memo.new_entries.size());
  if (fresh > 0) {
    // When every row is new and distinct the input is the batch, in order.
    const Matrix* batch = &input;
    if (fresh < rows) {
      memo.missing.ResizeZeroed(fresh, in_dim);
      for (int64_t j = 0; j < fresh; ++j) {
        std::memcpy(memo.missing.data() + j * in_dim,
                    memo.Key(memo.new_entries[static_cast<size_t>(j)]),
                    in_bytes);
      }
      batch = &memo.missing;
    }
    Matrix& out = ForwardLayers(*batch, workspace);
    for (int64_t j = 0; j < fresh; ++j) {
      std::memcpy(memo.Output(memo.new_entries[static_cast<size_t>(j)]),
                  out.data() + j * out_dim, out_bytes);
    }
    if (fresh == rows) return out;
  }

  // Copy every row's output out of the memo: callers overwrite the
  // returned matrix (masked logits), which must never reach the memo.
  workspace->activations.resize(layers_.size());
  Matrix& result = workspace->activations.back();
  result.ResizeZeroed(rows, out_dim);
  for (int64_t r = 0; r < rows; ++r) {
    std::memcpy(result.data() + r * out_dim,
                memo.Output(memo.row_entries[static_cast<size_t>(r)]),
                out_bytes);
  }
  return result;
}

Matrix& Mlp::ForwardBatchInto(const Matrix& inputs,
                              MlpWorkspace* workspace) const {
  // One minibatch forward for the whole frontier. Every layer maps rows
  // independently and every kernel (MatmulInto's row blocking included)
  // keeps per-row summation order identical at any batch size, so this is
  // exactly N single-row ForwardInto calls fused into one invocation.
  HFQ_CHECK(inputs.rows() >= 1);
  return ForwardInto(inputs, workspace);
}

uint64_t MlpMemo::Hash(const Mlp* net, const double* row, int64_t dim) {
  // One xor-multiply chain over the row's 64-bit words, seeded with the
  // network; Find confirms every match with a full row compare. A multiply
  // carries bits only upward, and features such as 0.0 and 1.0 differ only
  // in their top bits, so the chain rotates those down before each word:
  // without it, rows of such features hash to at most 4096 values.
  uint64_t h = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(net));
  for (int64_t i = 0; i < dim; ++i) {
    uint64_t bits = 0;
    std::memcpy(&bits, row + i, sizeof(bits));
    h = (std::rotl(h, 32) ^ bits) * 1099511628211ull;
  }
  return MixSeed64(h);
}

int64_t MlpMemo::Find(const Mlp* net, const double* row, int64_t dim,
                      uint64_t hash) const {
  if (slots_.empty()) return -1;
  const size_t bytes = static_cast<size_t>(dim) * sizeof(double);
  const size_t mask = slots_.size() - 1;
  // The table is at most half full, so the probe reaches an empty slot.
  for (size_t s = hash & mask;; s = (s + 1) & mask) {
    const int32_t index = slots_[s];
    if (index < 0) return -1;
    const Entry& entry = entries_[static_cast<size_t>(index)];
    if (entry.hash == hash && entry.net == net &&
        std::memcmp(keys_.data() + entry.key, row, bytes) == 0) {
      return index;
    }
  }
}

int64_t MlpMemo::Insert(const Mlp* net, const double* row, int64_t dim,
                        int64_t out_dim, uint64_t hash) {
  if (2 * (entries_.size() + 1) > slots_.size()) Grow();
  Entry entry;
  entry.net = net;
  entry.hash = hash;
  entry.key = keys_.size();
  entry.value = values_.size();
  keys_.insert(keys_.end(), row, row + dim);
  values_.resize(values_.size() + static_cast<size_t>(out_dim));
  const int32_t index = static_cast<int32_t>(entries_.size());
  entries_.push_back(entry);
  const size_t mask = slots_.size() - 1;
  size_t s = hash & mask;
  while (slots_[s] >= 0) s = (s + 1) & mask;
  slots_[s] = index;
  return index;
}

void MlpMemo::Grow() {
  const size_t size = std::max<size_t>(64, 2 * slots_.size());
  slots_.assign(size, -1);
  const size_t mask = size - 1;
  for (size_t e = 0; e < entries_.size(); ++e) {
    size_t s = entries_[e].hash & mask;
    while (slots_[s] >= 0) s = (s + 1) & mask;
    slots_[s] = static_cast<int32_t>(e);
  }
}

void MlpMemo::Clear() {
  entries_.clear();
  keys_.clear();
  values_.clear();
  std::fill(slots_.begin(), slots_.end(), -1);
}

MlpMemoScope::MlpMemoScope(MlpWorkspace* workspace) : workspace_(workspace) {
  HFQ_CHECK(workspace != nullptr);
  HFQ_CHECK_MSG(!workspace->memo.open,
                "a memo scope is already open on this workspace");
  workspace->memo.Clear();
  workspace->memo.open = true;
}

MlpMemoScope::~MlpMemoScope() {
  workspace_->memo.Clear();
  workspace_->memo.open = false;
}

Matrix Mlp::Backward(const Matrix& grad_output, bool need_input_grad) {
  HFQ_CHECK(!layers_.empty());
  Matrix g = grad_output;
  for (size_t idx = layers_.size(); idx-- > 0;) {
    if (idx == 0 && !need_input_grad) {
      layers_[0]->BackwardParamsOnly(g);
      return Matrix();
    }
    g = layers_[idx]->Backward(g);
  }
  return g;
}

std::vector<Matrix*> Mlp::Params() {
  std::vector<Matrix*> params;
  for (auto& layer : layers_) {
    for (Matrix* p : layer->Params()) params.push_back(p);
  }
  return params;
}

std::vector<Matrix*> Mlp::Grads() {
  std::vector<Matrix*> grads;
  for (auto& layer : layers_) {
    for (Matrix* g : layer->Grads()) grads.push_back(g);
  }
  return grads;
}

void Mlp::ZeroGrads() {
  for (Matrix* g : Grads()) g->Zero();
}

int64_t Mlp::ParameterCount() {
  int64_t count = 0;
  for (Matrix* p : Params()) count += p->size();
  return count;
}

void Mlp::CopyWeightsFrom(Mlp& other) {
  auto dst = Params();
  auto src = other.Params();
  HFQ_CHECK(dst.size() == src.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    HFQ_CHECK(dst[i]->SameShape(*src[i]));
    *dst[i] = *src[i];
  }
}

void Mlp::SoftUpdateFrom(Mlp& other, double tau) {
  auto dst = Params();
  auto src = other.Params();
  HFQ_CHECK(dst.size() == src.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    HFQ_CHECK(dst[i]->SameShape(*src[i]));
    dst[i]->Scale(1.0 - tau);
    dst[i]->Axpy(tau, *src[i]);
  }
}

int64_t Mlp::TransferMatchingWeightsFrom(Mlp& other) {
  auto dst = Params();
  auto src = other.Params();
  int64_t copied = 0;
  size_t n = std::min(dst.size(), src.size());
  // Align from the output end: the paper transfers the *later* layers into
  // a network whose input featurization (and hence early layers) changed.
  for (size_t i = 0; i < n; ++i) {
    Matrix* d = dst[dst.size() - 1 - i];
    Matrix* s = src[src.size() - 1 - i];
    if (d->SameShape(*s)) {
      *d = *s;
      ++copied;
    }
  }
  return copied;
}

Status Mlp::Save(std::ostream& out) {
  out << "hfq-mlp-v1\n";
  out << config_.input_dim << " " << config_.output_dim << " "
      << ActivationName(config_.activation) << "\n";
  out << config_.hidden_dims.size();
  for (int64_t h : config_.hidden_dims) out << " " << h;
  out << "\n";
  out.precision(17);
  for (Matrix* p : Params()) {
    out << p->rows() << " " << p->cols() << "\n";
    for (int64_t i = 0; i < p->size(); ++i) {
      out << p->data()[i] << (i + 1 == p->size() ? "\n" : " ");
    }
  }
  if (!out.good()) return Status::Internal("write failure while saving MLP");
  return Status::OK();
}

Result<Mlp> Mlp::Load(std::istream& in) {
  std::string magic;
  in >> magic;
  if (magic != "hfq-mlp-v1") {
    return Status::InvalidArgument("bad MLP file magic: " + magic);
  }
  MlpConfig config;
  std::string act_name;
  in >> config.input_dim >> config.output_dim >> act_name;
  HFQ_ASSIGN_OR_RETURN(config.activation, ActivationFromName(act_name));
  size_t num_hidden = 0;
  in >> num_hidden;
  if (num_hidden > 64) {
    return Status::InvalidArgument("implausible hidden layer count");
  }
  config.hidden_dims.resize(num_hidden);
  for (auto& h : config.hidden_dims) in >> h;
  if (!in.good()) return Status::InvalidArgument("truncated MLP header");

  Rng rng(0);  // Weights are overwritten below.
  Mlp mlp(config, &rng);
  for (Matrix* p : mlp.Params()) {
    int64_t rows = 0, cols = 0;
    in >> rows >> cols;
    if (rows != p->rows() || cols != p->cols()) {
      return Status::InvalidArgument(StrFormat(
          "shape mismatch in MLP file: got %lldx%lld want %lldx%lld",
          static_cast<long long>(rows), static_cast<long long>(cols),
          static_cast<long long>(p->rows()),
          static_cast<long long>(p->cols())));
    }
    for (int64_t i = 0; i < p->size(); ++i) in >> p->data()[i];
  }
  if (in.fail()) return Status::InvalidArgument("truncated MLP weights");
  return mlp;
}

}  // namespace hfq
