#include "plan/query.h"

#include <cstring>
#include <set>
#include <sstream>

namespace hfq {

int Query::RelationIndex(const std::string& alias) const {
  for (size_t i = 0; i < relations.size(); ++i) {
    if (relations[i].alias == alias) return static_cast<int>(i);
  }
  return -1;
}

std::vector<int> Query::SelectionsOn(int rel) const {
  std::vector<int> out;
  for (size_t i = 0; i < selections.size(); ++i) {
    if (selections[i].column.rel_idx == rel) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<int> Query::JoinPredsBetween(RelSet a, RelSet b) const {
  std::vector<int> out;
  for (size_t i = 0; i < joins.size(); ++i) {
    const auto& j = joins[i];
    RelSet l = RelSetOf(j.left.rel_idx);
    RelSet r = RelSetOf(j.right.rel_idx);
    if (((l & a) && (r & b)) || ((l & b) && (r & a))) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

bool Query::HasJoinPredBetween(RelSet a, RelSet b) const {
  for (const auto& j : joins) {
    RelSet l = RelSetOf(j.left.rel_idx);
    RelSet r = RelSetOf(j.right.rel_idx);
    if (((l & a) && (r & b)) || ((l & b) && (r & a))) return true;
  }
  return false;
}

RelSet Query::NeighborsOf(int rel) const {
  RelSet out = 0;
  for (const auto& j : joins) {
    if (j.left.rel_idx == rel) out |= RelSetOf(j.right.rel_idx);
    if (j.right.rel_idx == rel) out |= RelSetOf(j.left.rel_idx);
  }
  return out & ~RelSetOf(rel);
}

RelSet Query::NeighborsOfSet(RelSet s) const {
  RelSet out = 0;
  for (int rel : RelSetMembers(s)) out |= NeighborsOf(rel);
  return out & ~s;
}

bool Query::IsConnected(RelSet s) const {
  if (s == 0) return false;
  std::vector<int> members = RelSetMembers(s);
  if (members.size() == 1) return true;
  RelSet visited = RelSetOf(members[0]);
  RelSet frontier = visited;
  while (frontier != 0) {
    RelSet next = NeighborsOfSet(visited) & s;
    if (next == 0) break;
    visited |= next;
    frontier = next;
  }
  return visited == s;
}

bool Query::IsFullyConnected() const {
  return IsConnected(RelSetAll(num_relations()));
}

Status Query::Validate(const Catalog& catalog) const {
  if (relations.empty()) {
    return Status::InvalidArgument("query has no relations: " + name);
  }
  if (num_relations() > kMaxRelations) {
    return Status::InvalidArgument("too many relations in query " + name);
  }
  std::set<std::string> aliases;
  for (const auto& rel : relations) {
    if (!catalog.HasTable(rel.table)) {
      return Status::NotFound("unknown table " + rel.table + " in query " +
                              name);
    }
    if (rel.alias.empty() || !aliases.insert(rel.alias).second) {
      return Status::InvalidArgument("missing or duplicate alias '" +
                                     rel.alias + "' in query " + name);
    }
  }
  auto check_ref = [&](const ColumnRef& ref) -> Status {
    if (ref.rel_idx < 0 || ref.rel_idx >= num_relations()) {
      return Status::OutOfRange("bad relation index in query " + name);
    }
    const auto& rel = relations[static_cast<size_t>(ref.rel_idx)];
    HFQ_ASSIGN_OR_RETURN(const TableDef* table, catalog.GetTable(rel.table));
    if (table->ColumnIndex(ref.column) < 0) {
      return Status::NotFound("unknown column " + rel.alias + "." +
                              ref.column + " in query " + name);
    }
    return Status::OK();
  };
  for (const auto& sel : selections) HFQ_RETURN_IF_ERROR(check_ref(sel.column));
  for (const auto& join : joins) {
    HFQ_RETURN_IF_ERROR(check_ref(join.left));
    HFQ_RETURN_IF_ERROR(check_ref(join.right));
    if (join.left.rel_idx == join.right.rel_idx) {
      return Status::InvalidArgument("join predicate within one relation in " +
                                     name);
    }
  }
  for (const auto& g : group_by) HFQ_RETURN_IF_ERROR(check_ref(g));
  for (const auto& agg : aggregates) {
    if (agg.has_arg) HFQ_RETURN_IF_ERROR(check_ref(agg.arg));
  }
  return Status::OK();
}

uint64_t Query::StructuralFingerprint() const {
  // FNV-1a over every structural field, with length/tag separators so
  // adjacent fields cannot alias ("ab"+"c" vs "a"+"bc").
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  auto mix_str = [&](const std::string& s) {
    mix(s.size());
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  };
  auto mix_col = [&](const ColumnRef& ref) {
    mix(static_cast<uint64_t>(static_cast<int64_t>(ref.rel_idx)));
    mix_str(ref.column);
  };
  auto mix_value = [&](const Value& v) {
    mix(v.is_double ? 1 : 0);
    mix(static_cast<uint64_t>(v.i));
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v.d));
    std::memcpy(&bits, &v.d, sizeof(bits));
    mix(bits);
  };
  mix(relations.size());
  for (const auto& rel : relations) {
    mix_str(rel.table);
    mix_str(rel.alias);
  }
  mix(selections.size());
  for (const auto& sel : selections) {
    mix_col(sel.column);
    mix(static_cast<uint64_t>(sel.op));
    mix_value(sel.value);
  }
  mix(joins.size());
  for (const auto& join : joins) {
    mix_col(join.left);
    mix_col(join.right);
  }
  mix(group_by.size());
  for (const auto& g : group_by) mix_col(g);
  mix(aggregates.size());
  for (const auto& agg : aggregates) {
    mix(static_cast<uint64_t>(agg.func));
    mix(agg.has_arg ? 1 : 0);
    if (agg.has_arg) mix_col(agg.arg);
  }
  return h;
}

std::string Query::ToSql() const {
  std::ostringstream out;
  out << "SELECT ";
  bool first = true;
  for (const auto& g : group_by) {
    if (!first) out << ", ";
    out << relations[static_cast<size_t>(g.rel_idx)].alias << "." << g.column;
    first = false;
  }
  for (const auto& agg : aggregates) {
    if (!first) out << ", ";
    out << AggFuncName(agg.func) << "(";
    if (agg.has_arg) {
      out << relations[static_cast<size_t>(agg.arg.rel_idx)].alias << "."
          << agg.arg.column;
    } else {
      out << "*";
    }
    out << ")";
    first = false;
  }
  if (first) out << "*";
  out << " FROM ";
  for (size_t i = 0; i < relations.size(); ++i) {
    if (i) out << ", ";
    out << relations[i].table;
    if (relations[i].alias != relations[i].table) {
      out << " AS " << relations[i].alias;
    }
  }
  if (!selections.empty() || !joins.empty()) {
    out << " WHERE ";
    bool first_pred = true;
    for (const auto& j : joins) {
      if (!first_pred) out << " AND ";
      out << relations[static_cast<size_t>(j.left.rel_idx)].alias << "."
          << j.left.column << " = "
          << relations[static_cast<size_t>(j.right.rel_idx)].alias << "."
          << j.right.column;
      first_pred = false;
    }
    for (const auto& s : selections) {
      if (!first_pred) out << " AND ";
      out << relations[static_cast<size_t>(s.column.rel_idx)].alias << "."
          << s.column.column << " " << CmpOpName(s.op) << " "
          << s.value.ToString();
      first_pred = false;
    }
  }
  if (!group_by.empty()) {
    out << " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i) out << ", ";
      out << relations[static_cast<size_t>(group_by[i].rel_idx)].alias << "."
          << group_by[i].column;
    }
  }
  out << ";";
  return out.str();
}

}  // namespace hfq
