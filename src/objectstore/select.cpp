#include "objectstore/select.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common/metrics.h"
#include "common/query_counters.h"
#include "exec/scan_source.h"

namespace pocs::objectstore {

using columnar::Column;
using columnar::RecordBatch;
using columnar::RecordBatchPtr;
using columnar::TypeKind;

namespace {

void AppendCell(const Column& col, size_t row, std::string* out) {
  if (col.IsNull(row)) return;  // empty cell encodes NULL
  char buf[40];
  switch (col.type()) {
    case TypeKind::kBool:
      out->append(col.GetBool(row) ? "true" : "false");
      break;
    case TypeKind::kInt32:
    case TypeKind::kDate32:
      std::snprintf(buf, sizeof(buf), "%d", col.GetInt32(row));
      out->append(buf);
      break;
    case TypeKind::kInt64:
      std::snprintf(buf, sizeof(buf), "%" PRId64, col.GetInt64(row));
      out->append(buf);
      break;
    case TypeKind::kFloat64:
      // %.17g preserves the value exactly through the text roundtrip.
      std::snprintf(buf, sizeof(buf), "%.17g", col.GetFloat64(row));
      out->append(buf);
      break;
    case TypeKind::kString:
      out->append(col.GetString(row));  // values in this repo are CSV-safe
      break;
  }
}

Status AppendParsedCell(std::string_view cell, Column* col) {
  if (cell.empty()) {
    col->AppendNull();
    return Status::OK();
  }
  switch (col->type()) {
    case TypeKind::kBool:
      col->AppendBool(cell == "true");
      return Status::OK();
    case TypeKind::kInt32:
    case TypeKind::kDate32: {
      int32_t v;
      auto [p, ec] = std::from_chars(cell.begin(), cell.end(), v);
      if (ec != std::errc() || p != cell.end()) {
        return Status::Corruption("csv: bad int32 '" + std::string(cell) + "'");
      }
      col->AppendInt32(v);
      return Status::OK();
    }
    case TypeKind::kInt64: {
      int64_t v;
      auto [p, ec] = std::from_chars(cell.begin(), cell.end(), v);
      if (ec != std::errc() || p != cell.end()) {
        return Status::Corruption("csv: bad int64 '" + std::string(cell) + "'");
      }
      col->AppendInt64(v);
      return Status::OK();
    }
    case TypeKind::kFloat64: {
      // std::from_chars<double> is available with GCC >= 11.
      double v;
      auto [p, ec] = std::from_chars(cell.begin(), cell.end(), v);
      if (ec != std::errc() || p != cell.end()) {
        return Status::Corruption("csv: bad float '" + std::string(cell) + "'");
      }
      col->AppendFloat64(v);
      return Status::OK();
    }
    case TypeKind::kString:
      col->AppendString(cell);
      return Status::OK();
  }
  return Status::Internal("csv: unreachable");
}

}  // namespace

Result<SelectResponse> ExecuteSelect(const ObjectStore& store,
                                     const SelectRequest& request) {
  POCS_ASSIGN_OR_RETURN(ObjectData object,
                        store.Get(request.bucket, request.key));
  POCS_ASSIGN_OR_RETURN(auto reader, format::FileReader::Open(*object));
  const columnar::Schema& schema = *reader->schema();

  // Projected columns (empty = all) and predicate columns must exist.
  exec::ScanOptions options;
  for (const std::string& name : request.columns) {
    int idx = schema.FieldIndex(name);
    if (idx < 0) return Status::InvalidArgument("no column " + name);
    options.columns.push_back(idx);
  }
  for (const SelectPredicate& pred : request.predicates) {
    if (schema.FieldIndex(pred.column) < 0) {
      return Status::InvalidArgument("no column " + pred.column);
    }
  }
  options.terms = request.predicates;
  exec::ScanSource source(std::move(reader), std::move(options));

  SelectResponse response;
  const columnar::Schema& out = *source.schema();
  for (size_t i = 0; i < out.num_fields(); ++i) {
    if (i) response.csv += ',';
    response.csv += out.field(i).name;
  }
  response.csv += '\n';

  // The source's selection is exact for the predicates: emit the selected
  // rows' cells in row order.
  while (true) {
    POCS_ASSIGN_OR_RETURN(exec::SelectedBatch sb, source.NextSelected());
    if (!sb.batch) break;
    const RecordBatch& batch = *sb.batch;
    auto emit = [&](uint32_t row) {
      for (size_t i = 0; i < batch.num_columns(); ++i) {
        if (i) response.csv += ',';
        AppendCell(*batch.column(i), row, &response.csv);
      }
      response.csv += '\n';
    };
    if (sb.selection) {
      for (uint32_t row : *sb.selection) emit(row);
      response.stats.rows_returned += sb.selection->size();
    } else {
      for (uint32_t row = 0; row < batch.num_rows(); ++row) emit(row);
      response.stats.rows_returned += batch.num_rows();
    }
  }
  response.stats.rows_scanned = source.rows_read();
  response.stats.groups_total = source.counters().row_groups_total;
  response.stats.groups_skipped = source.counters().row_groups_skipped;
  response.stats.object_bytes_read = source.media_bytes();

  {
    auto& reg = metrics::Registry::Default();
    static auto& requests = reg.GetCounter("select.requests");
    static auto& rows_scanned = reg.GetCounter("select.rows_scanned");
    static auto& rows_returned = reg.GetCounter("select.rows_returned");
    static auto& media = reg.GetCounter("select.object_bytes_read");
    static const CounterMirror<ScanCounters> scan_counters(
        [](std::string_view name) { return "select." + std::string(name); });
    requests.Increment();
    rows_scanned.Add(response.stats.rows_scanned);
    rows_returned.Add(response.stats.rows_returned);
    media.Add(response.stats.object_bytes_read);
    scan_counters.Add(source.counters());
  }
  return response;
}

Result<RecordBatchPtr> ParseSelectCsv(const std::string& csv,
                                      const columnar::SchemaPtr& schema) {
  std::vector<std::shared_ptr<Column>> cols;
  for (size_t c = 0; c < schema->num_fields(); ++c) {
    cols.push_back(columnar::MakeColumn(schema->field(c).type));
  }
  size_t pos = csv.find('\n');
  if (pos == std::string::npos) return Status::Corruption("csv: no header");
  // Header sanity: column count must match.
  {
    std::string_view header(csv.data(), pos);
    size_t commas = std::count(header.begin(), header.end(), ',');
    if (!header.empty() && commas + 1 != schema->num_fields()) {
      return Status::Corruption("csv: header column count mismatch");
    }
  }
  ++pos;
  while (pos < csv.size()) {
    size_t eol = csv.find('\n', pos);
    if (eol == std::string::npos) eol = csv.size();
    std::string_view line(csv.data() + pos, eol - pos);
    size_t field_start = 0;
    for (size_t c = 0; c < schema->num_fields(); ++c) {
      size_t comma = (c + 1 < schema->num_fields())
                         ? line.find(',', field_start)
                         : line.size();
      if (comma == std::string_view::npos) {
        return Status::Corruption("csv: short row");
      }
      POCS_RETURN_NOT_OK(AppendParsedCell(
          line.substr(field_start, comma - field_start), cols[c].get()));
      field_start = comma + 1;
    }
    pos = eol + 1;
  }
  std::vector<columnar::ColumnPtr> const_cols(cols.begin(), cols.end());
  return columnar::MakeBatch(schema, std::move(const_cols));
}

}  // namespace pocs::objectstore
