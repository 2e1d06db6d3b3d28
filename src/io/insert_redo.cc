#include "io/insert_redo.h"

#include <cstring>
#include <unordered_map>
#include <utility>

#include "io/wire.h"

namespace dwred {

namespace {

constexpr uint8_t kPlainTag = 0;
constexpr uint8_t kTimeTag = 1;
constexpr uint8_t kTopTag = 2;

/// One symbolic value of a payload; `name` points into the payload.
struct Entry {
  uint8_t tag = kTopTag;
  CategoryId category = 0;  ///< kPlainTag
  std::string_view name;    ///< kPlainTag
  TimeGranule granule;      ///< kTimeTag
};

/// A parsed payload before resolution: per dimension the distinct entries
/// in first-occurrence row order, and each row's index into them.
struct SymbolicBatch {
  size_t rows = 0;
  std::vector<std::vector<Entry>> dicts;  ///< per dimension
  std::vector<uint32_t> index;            ///< rows × dimensions, row-major
  std::vector<int64_t> measures;          ///< rows × measures, row-major
};

void PutEntry(std::string* aux, const Dimension& dim, ValueId v) {
  if (v == dim.top_value()) {
    wire::PutU8(aux, kTopTag);
  } else if (dim.is_time()) {
    const TimeGranule g = dim.granule(v);
    wire::PutU8(aux, kTimeTag);
    wire::PutU8(aux, static_cast<uint8_t>(g.unit));
    wire::PutI64(aux, g.index);
  } else {
    wire::PutU8(aux, kPlainTag);
    wire::PutU32(aux, dim.value_category(v));
    wire::PutStr(aux, dim.value_name(v));
  }
}

Status ReadEntry(wire::Cursor* c, const Dimension& dim, Entry* e) {
  DWRED_RETURN_IF_ERROR(c->U8(&e->tag));
  switch (e->tag) {
    case kPlainTag: {
      uint32_t n;
      DWRED_RETURN_IF_ERROR(c->U32(&e->category));
      DWRED_RETURN_IF_ERROR(c->U32(&n));
      return c->View(n, &e->name);
    }
    case kTimeTag: {
      uint8_t unit;
      DWRED_RETURN_IF_ERROR(c->U8(&unit));
      DWRED_RETURN_IF_ERROR(c->I64(&e->granule.index));
      if (!dim.is_time() || unit >= static_cast<uint8_t>(TimeUnit::kTop)) {
        return Status::ParseError("insert redo: bad time coordinate");
      }
      e->granule.unit = static_cast<TimeUnit>(unit);
      return Status::OK();
    }
    case kTopTag:
      return Status::OK();
  }
  return Status::ParseError("insert redo: unknown coordinate tag " +
                            std::to_string(e->tag));
}

/// Reads the shared header and checks the shape against the warehouse.
Status ReadHeader(wire::Cursor* c, size_t ndims, size_t nmeas,
                  uint32_t* nrows) {
  uint32_t nd, nm;
  DWRED_RETURN_IF_ERROR(c->U32(nrows));
  DWRED_RETURN_IF_ERROR(c->U32(&nd));
  DWRED_RETURN_IF_ERROR(c->U32(&nm));
  if (nd != ndims) {
    return Status::ParseError("insert redo: dimension count " +
                              std::to_string(nd) + " != warehouse's " +
                              std::to_string(ndims));
  }
  if (nm != nmeas) {
    return Status::ParseError("insert redo: measure count mismatch");
  }
  return Status::OK();
}

/// kInsertFacts: dictionaries, then index and measure columns.
Result<SymbolicBatch> ParseDictionaryForm(
    std::string_view aux, const std::vector<std::shared_ptr<Dimension>>& dims,
    size_t nmeas) {
  wire::Cursor c(aux, "insert redo");
  uint32_t nrows;
  DWRED_RETURN_IF_ERROR(ReadHeader(&c, dims.size(), nmeas, &nrows));
  const size_t nd = dims.size();
  SymbolicBatch b;
  b.rows = nrows;
  b.dicts.resize(nd);
  for (size_t d = 0; d < nd; ++d) {
    uint32_t count;
    DWRED_RETURN_IF_ERROR(c.U32(&count));
    // Every entry takes at least its tag byte.
    if (count > nrows || count > c.remaining()) {
      return Status::ParseError("insert redo: dictionary of dimension " +
                                std::to_string(d) + " exceeds the batch");
    }
    b.dicts[d].resize(count);
    for (Entry& e : b.dicts[d]) {
      DWRED_RETURN_IF_ERROR(ReadEntry(&c, *dims[d], &e));
    }
  }
  const uint64_t row_bytes = 4 * uint64_t{nd} + 8 * uint64_t{nmeas};
  if (c.remaining() != uint64_t{nrows} * row_bytes ||
      (row_bytes == 0 && nrows > 0)) {
    return Status::ParseError(
        "insert redo: column bytes do not match the row count");
  }
  b.index.resize(size_t{nrows} * nd);
  for (size_t d = 0; d < nd; ++d) {
    std::string_view col;
    DWRED_RETURN_IF_ERROR(c.View(size_t{nrows} * 4, &col));
    const size_t count = b.dicts[d].size();
    for (size_t r = 0; r < nrows; ++r) {
      uint32_t i;
      std::memcpy(&i, col.data() + 4 * r, 4);
      if (i >= count) {
        return Status::ParseError("insert redo: dictionary index " +
                                  std::to_string(i) + " out of range");
      }
      b.index[r * nd + d] = i;
    }
  }
  b.measures.resize(size_t{nrows} * nmeas);
  for (size_t m = 0; m < nmeas; ++m) {
    std::string_view col;
    DWRED_RETURN_IF_ERROR(c.View(size_t{nrows} * 8, &col));
    for (size_t r = 0; r < nrows; ++r) {
      std::memcpy(&b.measures[r * nmeas + m], col.data() + 8 * r, 8);
    }
  }
  return b;
}

/// kInsertRows: one entry per coordinate, row by row. Repeated entries —
/// byte-identical encodings — share a dictionary slot.
Result<SymbolicBatch> ParseRowForm(
    std::string_view aux, const std::vector<std::shared_ptr<Dimension>>& dims,
    size_t nmeas) {
  wire::Cursor c(aux, "insert redo");
  uint32_t nrows;
  DWRED_RETURN_IF_ERROR(ReadHeader(&c, dims.size(), nmeas, &nrows));
  const size_t nd = dims.size();
  // Each row needs at least nd tag bytes + nmeas × 8 measure bytes.
  const size_t min_row = nd + 8 * nmeas;
  if (nrows > 0 && (min_row == 0 || c.remaining() / min_row < nrows)) {
    return Status::ParseError("insert redo: row count exceeds payload");
  }
  SymbolicBatch b;
  b.rows = nrows;
  b.dicts.resize(nd);
  b.index.resize(size_t{nrows} * nd);
  b.measures.resize(size_t{nrows} * nmeas);
  std::vector<std::unordered_map<std::string_view, uint32_t>> slots(nd);
  for (size_t r = 0; r < nrows; ++r) {
    for (size_t d = 0; d < nd; ++d) {
      const size_t start = c.pos();
      Entry e;
      DWRED_RETURN_IF_ERROR(ReadEntry(&c, *dims[d], &e));
      auto [it, fresh] = slots[d].emplace(aux.substr(start, c.pos() - start),
                                          b.dicts[d].size());
      if (fresh) b.dicts[d].push_back(e);
      b.index[r * nd + d] = it->second;
    }
    for (size_t m = 0; m < nmeas; ++m) {
      DWRED_RETURN_IF_ERROR(c.I64(&b.measures[r * nmeas + m]));
    }
  }
  if (!c.AtEnd()) {
    return Status::ParseError("insert redo: trailing bytes");
  }
  return b;
}

/// Checks that every entry is at its dimension's bottom category or ⊤, then
/// resolves the dictionaries and maps every row through them.
Result<ResolvedBatch> Resolve(
    SymbolicBatch&& b, const std::vector<std::shared_ptr<Dimension>>& dims) {
  const size_t nd = dims.size();
  for (size_t d = 0; d < nd; ++d) {
    const Dimension& dim = *dims[d];
    for (const Entry& e : b.dicts[d]) {
      if (e.tag == kTopTag) continue;
      const CategoryId c = e.tag == kPlainTag
                               ? e.category
                               : static_cast<CategoryId>(e.granule.unit);
      if (c != dim.type().bottom()) {
        return Status::InvalidArgument(
            "user-inserted facts must map to bottom-category values (or ⊤): "
            "dimension " + dim.name());
      }
    }
  }
  // Plain values and ⊤ first, so an unknown name refuses the batch before
  // any time value is interned; then the time values, in dictionary order.
  std::vector<std::vector<ValueId>> ids(nd);
  for (size_t d = 0; d < nd; ++d) {
    const Dimension& dim = *dims[d];
    ids[d].resize(b.dicts[d].size(), dim.top_value());
    for (size_t i = 0; i < b.dicts[d].size(); ++i) {
      const Entry& e = b.dicts[d][i];
      if (e.tag != kPlainTag) continue;
      DWRED_ASSIGN_OR_RETURN(ids[d][i], dim.ValueByName(e.category, e.name));
    }
  }
  for (size_t d = 0; d < nd; ++d) {
    for (size_t i = 0; i < b.dicts[d].size(); ++i) {
      const Entry& e = b.dicts[d][i];
      if (e.tag != kTimeTag) continue;
      DWRED_ASSIGN_OR_RETURN(ids[d][i], dims[d]->EnsureTimeValue(e.granule));
    }
  }
  ResolvedBatch out;
  out.rows = b.rows;
  out.cells.resize(b.index.size());
  for (size_t r = 0; r < b.rows; ++r) {
    for (size_t d = 0; d < nd; ++d) {
      out.cells[r * nd + d] = ids[d][b.index[r * nd + d]];
    }
  }
  out.measures = std::move(b.measures);
  return out;
}

}  // namespace

Result<std::string> EncodeInsertRedo(const MultidimensionalObject& batch) {
  const size_t rows = batch.num_facts();
  const size_t nd = batch.num_dimensions();
  const size_t nm = batch.num_measures();
  std::string aux;
  aux.reserve(12 + rows * (4 * nd + 8 * nm));
  wire::PutU32(&aux, static_cast<uint32_t>(rows));
  wire::PutU32(&aux, static_cast<uint32_t>(nd));
  wire::PutU32(&aux, static_cast<uint32_t>(nm));
  constexpr uint32_t kUnseen = UINT32_MAX;
  std::vector<std::vector<uint32_t>> index(nd, std::vector<uint32_t>(rows));
  for (size_t d = 0; d < nd; ++d) {
    const Dimension& dim = *batch.dimension(static_cast<DimensionId>(d));
    std::vector<uint32_t> slot(dim.num_values(), kUnseen);
    std::vector<ValueId> dict;
    for (size_t r = 0; r < rows; ++r) {
      const ValueId v = batch.Coord(r, static_cast<DimensionId>(d));
      if (v >= dim.num_values()) {
        return Status::InvalidArgument(
            "insert batch: coordinate " + std::to_string(v) +
            " names no value of dimension " + dim.name());
      }
      if (slot[v] == kUnseen) {
        slot[v] = static_cast<uint32_t>(dict.size());
        dict.push_back(v);
      }
      index[d][r] = slot[v];
    }
    wire::PutU32(&aux, static_cast<uint32_t>(dict.size()));
    for (ValueId v : dict) PutEntry(&aux, dim, v);
  }
  for (const std::vector<uint32_t>& col : index) {
    aux.append(reinterpret_cast<const char*>(col.data()), col.size() * 4);
  }
  std::vector<int64_t> col(rows);
  for (size_t m = 0; m < nm; ++m) {
    for (size_t r = 0; r < rows; ++r) {
      col[r] = batch.Measure(r, static_cast<MeasureId>(m));
    }
    aux.append(reinterpret_cast<const char*>(col.data()), col.size() * 8);
  }
  return aux;
}

Result<ResolvedBatch> DecodeInsertRedo(
    JournalOpKind kind, std::string_view aux,
    const std::vector<std::shared_ptr<Dimension>>& dims, size_t num_measures) {
  SymbolicBatch b;
  switch (kind) {
    case JournalOpKind::kInsertFacts: {
      DWRED_ASSIGN_OR_RETURN(b, ParseDictionaryForm(aux, dims, num_measures));
      break;
    }
    case JournalOpKind::kInsertRows: {
      DWRED_ASSIGN_OR_RETURN(b, ParseRowForm(aux, dims, num_measures));
      break;
    }
    default:
      return Status::Internal("not an insert operation");
  }
  return Resolve(std::move(b), dims);
}

}  // namespace dwred
