#include "exec/scan_source.h"

#include <algorithm>
#include <optional>

#include "columnar/kernels.h"
#include "substrait/expr.h"

namespace pocs::exec {

using columnar::ColumnPtr;
using columnar::CompareOp;
using columnar::RecordBatchPtr;
using columnar::SelectionVector;
using substrait::Expression;
using substrait::ExprKind;
using substrait::RelKind;
using substrait::ScalarFunc;

namespace {

// Typed bloom-probe loop: the type dispatch is hoisted out of the row
// loop and keys come from the raw value span (no per-row accessors).
template <typename V>
void BloomProbeLoop(const V* vals, const uint8_t* valid, size_t n,
                    const BloomFilter& bloom, SelectionVector* sel) {
  for (size_t i = 0; i < n; ++i) {
    if (valid != nullptr && valid[i] == 0) continue;
    const uint64_t key = static_cast<uint64_t>(static_cast<int64_t>(vals[i]));
    if (bloom.MayContain(key)) sel->push_back(static_cast<uint32_t>(i));
  }
}

// Intersection of two ascending, duplicate-free selections.
SelectionVector IntersectSelections(const SelectionVector& a,
                                    const SelectionVector& b) {
  SelectionVector out;
  out.reserve(std::min(a.size(), b.size()));
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out.push_back(a[i]);
      ++i;
      ++j;
    }
  }
  return out;
}

}  // namespace

SelectionVector BloomSelectRows(const columnar::Column& col,
                                const BloomFilter& bloom) {
  SelectionVector sel;
  sel.reserve(col.length());
  const size_t n = col.length();
  const uint8_t* valid = col.has_nulls() ? col.validity().data() : nullptr;
  switch (col.type()) {
    case columnar::TypeKind::kInt64:
      BloomProbeLoop(col.i64_data().data(), valid, n, bloom, &sel);
      break;
    case columnar::TypeKind::kInt32:
    case columnar::TypeKind::kDate32:
      BloomProbeLoop(col.i32_data().data(), valid, n, bloom, &sel);
      break;
    default:
      // Non-integer key: keep every non-null row (bloom reduction is
      // advisory; dropping nothing is the safe direction).
      for (size_t i = 0; i < n; ++i) {
        if (valid != nullptr && valid[i] == 0) continue;
        sel.push_back(static_cast<uint32_t>(i));
      }
      break;
  }
  return sel;
}

bool CollectPruningTerms(const Expression& expr,
                         const columnar::Schema& scan_schema,
                         std::vector<format::SelectPredicate>* out) {
  if (expr.kind != ExprKind::kCall) return false;
  if (expr.func == ScalarFunc::kAnd) {
    bool all = true;
    for (const Expression& arg : expr.args) {
      all = CollectPruningTerms(arg, scan_schema, out) && all;
    }
    return all;
  }
  if (!substrait::IsComparison(expr.func) || expr.args.size() != 2) {
    return false;
  }
  const Expression* field = nullptr;
  const Expression* literal = nullptr;
  bool flipped = false;
  if (expr.args[0].kind == ExprKind::kFieldRef &&
      expr.args[1].kind == ExprKind::kLiteral) {
    field = &expr.args[0];
    literal = &expr.args[1];
  } else if (expr.args[1].kind == ExprKind::kFieldRef &&
             expr.args[0].kind == ExprKind::kLiteral) {
    field = &expr.args[1];
    literal = &expr.args[0];
    flipped = true;
  } else {
    return false;
  }
  if (field->field_index < 0 ||
      static_cast<size_t>(field->field_index) >= scan_schema.num_fields()) {
    return false;
  }
  CompareOp op;
  switch (expr.func) {
    case ScalarFunc::kEq: op = CompareOp::kEq; break;
    case ScalarFunc::kNe: op = CompareOp::kNe; break;
    case ScalarFunc::kLt: op = CompareOp::kLt; break;
    case ScalarFunc::kLe: op = CompareOp::kLe; break;
    case ScalarFunc::kGt: op = CompareOp::kGt; break;
    case ScalarFunc::kGe: op = CompareOp::kGe; break;
    default: return false;
  }
  if (flipped) {
    // literal <op> field  ≡  field <flipped-op> literal
    switch (op) {
      case CompareOp::kLt: op = CompareOp::kGt; break;
      case CompareOp::kLe: op = CompareOp::kGe; break;
      case CompareOp::kGt: op = CompareOp::kLt; break;
      case CompareOp::kGe: op = CompareOp::kLe; break;
      default: break;
    }
  }
  out->push_back({scan_schema.field(field->field_index).name, op,
                  literal->literal});
  return true;
}

ScanSource::ScanSource(std::shared_ptr<const format::FileReader> reader,
                       ScanOptions options)
    : reader_(std::move(reader)), options_(std::move(options)) {
  const columnar::Schema& file = *reader_->schema();
  // An empty projection means "all columns"; expand so per-column fetches
  // and byte accounting agree.
  if (options_.columns.empty()) {
    for (size_t c = 0; c < file.num_fields(); ++c) {
      options_.columns.push_back(static_cast<int>(c));
    }
  }
  std::vector<columnar::Field> fields;
  fields.reserve(options_.columns.size());
  for (int c : options_.columns) fields.push_back(file.field(c));
  schema_ = columnar::MakeSchema(std::move(fields));

  // Terms name file columns; the openers validate them, so a term naming
  // no column is one this file cannot hold and is ignored.
  for (const format::SelectPredicate& pred : options_.terms) {
    const int c = file.FieldIndex(pred.column);
    if (c >= 0) terms_.push_back({c, pred});
  }
  for (int c : options_.columns) {
    lazy_ = lazy_ || std::none_of(terms_.begin(), terms_.end(),
                                  [c](const Term& t) { return t.column == c; });
  }
  if (!options_.row_group_hint.empty()) {
    hinted_.assign(reader_->num_row_groups(), false);
    for (uint32_t g : options_.row_group_hint) {
      if (g < hinted_.size()) hinted_[g] = true;
    }
  }
  if (options_.bloom && options_.bloom_column >= 0 &&
      static_cast<size_t>(options_.bloom_column) < options_.columns.size()) {
    bloom_key_ = options_.columns[options_.bloom_column];
  }
  counters_.row_groups_total = reader_->num_row_groups();
}

Result<RecordBatchPtr> ScanSource::Next() {
  POCS_ASSIGN_OR_RETURN(SelectedBatch sb, NextSelected());
  if (sb.batch && sb.selection) {
    return columnar::TakeBatch(*sb.batch, *sb.selection);
  }
  return std::move(sb.batch);
}

bool ScanSource::StatsMayMatch(size_t group) const {
  const auto& chunks = reader_->meta().row_groups[group].chunks;
  for (const Term& term : terms_) {
    if (!format::ChunkMayMatch(chunks[term.column].stats, term.pred)) {
      return false;
    }
  }
  return true;
}

void ScanSource::CacheInsert(size_t group, int c, const ColumnPtr& col) {
  if (options_.cache == nullptr) return;
  ++counters_.cache_misses;
  options_.cache->Insert(RowGroupCacheKey{options_.object_id,
                                          options_.object_version, group, c},
                         col, col->ByteSize());
}

Result<const format::DictionaryPage*> ScanSource::Resolve(Group* group, int c,
                                                          bool code_domain) {
  if (auto it = group->dict.find(c); it != group->dict.end()) {
    return &it->second;
  }
  if (group->decoded.count(c) != 0) {
    return static_cast<const format::DictionaryPage*>(nullptr);
  }
  const uint64_t chunk_bytes =
      reader_->meta().row_groups[group->index].chunks[c].length;
  if (options_.cache != nullptr) {
    if (ColumnPtr hit = options_.cache->Lookup(RowGroupCacheKey{
            options_.object_id, options_.object_version, group->index, c})) {
      ++counters_.cache_hits;
      counters_.cache_bytes_saved += chunk_bytes;
      group->decoded.emplace(c, std::move(hit));
      return static_cast<const format::DictionaryPage*>(nullptr);
    }
  }
  POCS_ASSIGN_OR_RETURN(Bytes page, reader_->ReadChunkPage(group->index, c));
  media_bytes_ += chunk_bytes;
  const columnar::Field& field = reader_->schema()->field(c);
  if (code_domain && field.type == columnar::TypeKind::kString) {
    POCS_ASSIGN_OR_RETURN(
        std::optional<format::DictionaryPage> dict,
        format::DecodeDictionaryPage(page, field, group->rows));
    if (dict) return &group->dict.emplace(c, std::move(*dict)).first->second;
  }
  POCS_ASSIGN_OR_RETURN(ColumnPtr col,
                        format::DecodePage(page, field, group->rows));
  CacheInsert(group->index, c, col);
  group->decoded.emplace(c, std::move(col));
  return static_cast<const format::DictionaryPage*>(nullptr);
}

Result<SelectedBatch> ScanSource::NextSelected() {
  while (next_group_ < reader_->num_row_groups()) {
    const size_t g = next_group_++;
    // The coordinator's hint first: those groups were proven non-matching
    // at plan time, so they never reach the per-group stats check (no
    // double counting with row_groups_skipped).
    if (!hinted_.empty() && !hinted_[g]) {
      ++counters_.row_groups_hint_skipped;
      continue;
    }
    if (!StatsMayMatch(g)) {
      ++counters_.row_groups_skipped;
      continue;
    }
    Group group{g, reader_->meta().row_groups[g].num_rows, {}, {}};
    rows_read_ += group.rows;

    // Every term, against its column only: in the code domain when the
    // chunk is dictionary-encoded and the lazy path is on.
    std::optional<SelectionVector> sel;
    for (const Term& term : terms_) {
      POCS_ASSIGN_OR_RETURN(const format::DictionaryPage* dict,
                            Resolve(&group, term.column, lazy_));
      const SelectionVector* input = sel ? &*sel : nullptr;
      if (dict != nullptr) {
        const size_t before = sel ? sel->size() : group.rows;
        SelectionVector out = format::FilterDictCodes(
            *dict,
            format::TranslateDictPredicate(*dict, term.pred.op,
                                           term.pred.literal),
            input);
        counters_.rows_dict_filtered += before - out.size();
        sel = std::move(out);
      } else {
        sel = columnar::CompareScalar(*group.decoded.at(term.column),
                                      term.pred.op, term.pred.literal, input);
      }
      if (sel->empty()) break;
    }
    if (lazy_ && sel && sel->empty()) {
      ++counters_.row_groups_lazy_skipped;
      continue;
    }

    // Semi-join bloom reduction (DESIGN.md §14). The probe runs over all
    // rows (its pruned-row accounting predates predicate selections); the
    // two selections are then intersected. A dictionary (string) key
    // cannot probe an integer-key bloom — BloomSelectRows would keep
    // every row — so the probe is skipped.
    if (bloom_key_ >= 0) {
      POCS_ASSIGN_OR_RETURN(const format::DictionaryPage* key_dict,
                            Resolve(&group, bloom_key_, lazy_));
      if (key_dict == nullptr) {
        SelectionVector bloom_sel =
            BloomSelectRows(*group.decoded.at(bloom_key_), *options_.bloom);
        if (bloom_sel.empty()) {
          counters_.bloom_rows_pruned += group.rows;
          continue;
        }
        if (bloom_sel.size() < group.rows) {
          counters_.bloom_rows_pruned += group.rows - bloom_sel.size();
          sel = sel ? IntersectSelections(*sel, bloom_sel)
                    : std::move(bloom_sel);
        }
      }
    }

    if (sel && sel->size() == group.rows) sel.reset();  // full — drop
    const bool partial = sel.has_value();
    std::vector<ColumnPtr> cols;
    cols.reserve(options_.columns.size());
    for (int c : options_.columns) {
      POCS_ASSIGN_OR_RETURN(const format::DictionaryPage* dict,
                            Resolve(&group, c, partial && lazy_));
      if (dict == nullptr) {
        cols.push_back(group.decoded.at(c));
      } else if (partial) {
        // Placeholder rows make the column unusable outside this
        // batch+selection pair — never cached.
        cols.push_back(format::MaterializeDictionarySelected(*dict, *sel));
        counters_.rows_late_materialized += sel->size();
      } else {
        ColumnPtr col = format::MaterializeDictionary(*dict);
        CacheInsert(g, c, col);
        cols.push_back(std::move(col));
      }
    }
    return SelectedBatch{columnar::MakeBatch(schema_, std::move(cols)),
                         std::move(sel)};
  }
  return SelectedBatch{RecordBatchPtr{}, std::nullopt};
}

Result<std::unique_ptr<ScanSource>> OpenPlanScan(
    const substrait::Plan& plan,
    std::shared_ptr<const format::FileReader> reader, uint64_t object_version,
    RowGroupCache* cache) {
  const substrait::Rel* read = plan.root.get();
  const substrait::Rel* above_read = nullptr;
  while (read != nullptr && read->input) {
    above_read = read;
    read = read->input.get();
  }
  if (read == nullptr || read->kind != RelKind::kRead) {
    return Status::InvalidArgument("scan: plan must scan a named object");
  }
  if (!read->base_schema || !reader->schema()->Equals(*read->base_schema)) {
    return Status::InvalidArgument("scan: plan schema != object schema");
  }
  // Also rejects a read column outside the object schema.
  POCS_ASSIGN_OR_RETURN(columnar::SchemaPtr scan_schema,
                        substrait::OutputSchema(*read));
  ScanOptions options;
  options.columns = read->read_columns;
  if (above_read != nullptr && above_read->kind == RelKind::kFilter) {
    CollectPruningTerms(above_read->predicate, *scan_schema, &options.terms);
  }
  // Hint and bloom are advisory: honoured only when computed from exactly
  // these bytes. A stale pin degrades to a full (unfiltered) scan — the
  // Filter above and the engine's exact join probe keep the answer right.
  if (object_version != 0) {
    if (read->hint_version == object_version) {
      options.row_group_hint = read->row_group_hint;
    }
    if (!read->bloom_words.empty() && read->bloom_version == object_version) {
      options.bloom = std::make_unique<const BloomFilter>(
          read->bloom_words, read->bloom_hashes, read->bloom_seed);
      options.bloom_column = read->bloom_column;
    }
  }
  options.cache = cache;
  options.object_id = read->bucket + "/" + read->object;
  options.object_version = object_version;
  return std::make_unique<ScanSource>(std::move(reader), std::move(options));
}

}  // namespace pocs::exec
