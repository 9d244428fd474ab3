#include "solap/storage/io.h"

#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "solap/common/failpoint.h"

namespace solap {

namespace {

// Snapshot retries performed process-wide (the retry-enabled Save/Load
// overloads count here; surfaced as the service's `io_retries` gauge).
std::atomic<uint64_t> g_io_retries{0};

// Durability barrier between writing the tmp file and renaming it over the
// destination: without the fsync, a crash after the rename could publish a
// file whose blocks never reached the disk.
Status SyncFile(const std::string& path) {
  SOLAP_FAILPOINT("io.snapshot.sync");
#if defined(__unix__) || defined(__APPLE__)
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::Internal("cannot reopen '" + path + "' to sync");
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::Internal("fsync failed for '" + path + "'");
#else
  (void)path;
#endif
  return Status::OK();
}

}  // namespace

namespace {

constexpr char kMagic[4] = {'S', 'O', 'L', 'P'};
// v2: inverted-index posting lists are serialized container-wise
// (index/container.h) instead of as flat sid vectors.
constexpr uint32_t kVersion = 2;
constexpr uint8_t kKindTable = 'T';
constexpr uint8_t kKindIndex = 'I';

// --- buffered writer / reader with running CRC ------------------------------

class Writer {
 public:
  void Raw(const void* data, size_t size) {
    const char* p = static_cast<const char*>(data);
    buf_.insert(buf_.end(), p, p + size);
  }
  void U8(uint8_t v) { Raw(&v, 1); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void I64(int64_t v) { Raw(&v, 8); }
  void F64(double v) { Raw(&v, 8); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  template <typename T>
  void Vec(const std::vector<T>& v) {
    U64(v.size());
    Raw(v.data(), v.size() * sizeof(T));
  }

  // Atomic publish: the snapshot is written to `<path>.tmp`, fsynced, and
  // renamed into place. A crash or failure at any step leaves either the
  // old destination file or a stale .tmp — never a torn destination (the
  // pre-existing snapshot is the recovery point).
  Status Flush(const std::string& path) {
    SOLAP_FAILPOINT("io.snapshot.open");
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) return Status::NotFound("cannot create '" + tmp + "'");
      uint32_t crc = Crc32(buf_.data(), buf_.size());
      // The write failpoint sits between two half-writes so a fired fault
      // leaves a genuinely torn tmp file on disk, as a crash mid-write
      // would — fault tests assert the destination survives it.
      const size_t half = buf_.size() / 2;
      out.write(buf_.data(), static_cast<std::streamsize>(half));
      Status torn = SOLAP_FAILPOINT_CHECK("io.snapshot.write");
      if (!torn.ok()) return torn;
      out.write(buf_.data() + half,
                static_cast<std::streamsize>(buf_.size() - half));
      out.write(reinterpret_cast<const char*>(&crc), 4);
      out.flush();
      if (!out.good()) {
        out.close();
        std::remove(tmp.c_str());
        return Status::Internal("write failed for '" + tmp + "'");
      }
    }
    Status synced = SyncFile(tmp);
    if (!synced.ok()) {
      std::remove(tmp.c_str());
      return synced;
    }
    Status renamed = SOLAP_FAILPOINT_CHECK("io.snapshot.rename");
    if (renamed.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
      renamed = Status::Internal("cannot rename '" + tmp + "' to '" + path +
                                 "'");
    }
    if (!renamed.ok()) {
      std::remove(tmp.c_str());
      return renamed;
    }
    return Status::OK();
  }

 private:
  std::vector<char> buf_;
};

class Reader {
 public:
  static Result<Reader> Open(const std::string& path) {
    SOLAP_FAILPOINT("io.snapshot.read");
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::NotFound("cannot open '" + path + "'");
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    if (bytes.size() < 4 + sizeof(kMagic)) {
      return Status::ParseError("'" + path + "' is truncated");
    }
    uint32_t stored;
    std::memcpy(&stored, bytes.data() + bytes.size() - 4, 4);
    if (Crc32(bytes.data(), bytes.size() - 4) != stored) {
      return Status::ParseError("'" + path + "' failed its checksum");
    }
    bytes.resize(bytes.size() - 4);
    Reader r;
    r.buf_ = std::move(bytes);
    return r;
  }

  Status Raw(void* out, size_t size) {
    if (pos_ + size > buf_.size()) {
      return Status::ParseError("snapshot ends unexpectedly");
    }
    std::memcpy(out, buf_.data() + pos_, size);
    pos_ += size;
    return Status::OK();
  }
  Result<uint8_t> U8() {
    uint8_t v;
    SOLAP_RETURN_NOT_OK(Raw(&v, 1));
    return v;
  }
  Result<uint32_t> U32() {
    uint32_t v;
    SOLAP_RETURN_NOT_OK(Raw(&v, 4));
    return v;
  }
  Result<uint64_t> U64() {
    uint64_t v;
    SOLAP_RETURN_NOT_OK(Raw(&v, 8));
    return v;
  }
  Result<int64_t> I64() {
    int64_t v;
    SOLAP_RETURN_NOT_OK(Raw(&v, 8));
    return v;
  }
  Result<double> F64() {
    double v;
    SOLAP_RETURN_NOT_OK(Raw(&v, 8));
    return v;
  }
  // Length prefixes are validated against the bytes actually remaining
  // BEFORE allocating (and without `n * sizeof(T)` overflow), so a corrupt
  // or adversarial length field is a clean ParseError, never a multi-GB
  // allocation attempt.
  Result<std::string> Str() {
    SOLAP_ASSIGN_OR_RETURN(uint32_t n, U32());
    if (n > buf_.size() - pos_) {
      return Status::ParseError("snapshot string exceeds file size");
    }
    std::string s(n, '\0');
    SOLAP_RETURN_NOT_OK(Raw(s.data(), n));
    return s;
  }
  template <typename T>
  Result<std::vector<T>> Vec() {
    SOLAP_ASSIGN_OR_RETURN(uint64_t n, U64());
    if (n > (buf_.size() - pos_) / sizeof(T)) {
      return Status::ParseError("snapshot vector exceeds file size");
    }
    std::vector<T> v(n);
    SOLAP_RETURN_NOT_OK(Raw(v.data(), n * sizeof(T)));
    return v;
  }

 private:
  std::vector<char> buf_;
  size_t pos_ = 0;
};

Status CheckHeader(Reader& r, uint8_t expected_kind) {
  char magic[4];
  SOLAP_RETURN_NOT_OK(r.Raw(magic, 4));
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return Status::ParseError("not a S-OLAP snapshot (bad magic)");
  }
  SOLAP_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (version != kVersion) {
    return Status::ParseError("unsupported snapshot version " +
                              std::to_string(version));
  }
  SOLAP_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
  if (kind != expected_kind) {
    return Status::ParseError("snapshot holds a different object kind");
  }
  return Status::OK();
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = ~seed;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

/// Accessor bridge into EventTable internals (declared friend there).
class TableIo {
 public:
  static Status Save(const EventTable& t, const std::string& path) {
    Writer w;
    w.Raw(kMagic, 4);
    w.U32(kVersion);
    w.U8(kKindTable);
    const Schema& schema = t.schema();
    w.U32(static_cast<uint32_t>(schema.num_fields()));
    for (const Field& f : schema.fields()) {
      w.Str(f.name);
      w.U8(static_cast<uint8_t>(f.type));
      w.U8(static_cast<uint8_t>(f.role));
    }
    w.U64(t.num_rows_);
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      switch (schema.field(c).type) {
        case ValueType::kString: {
          const Dictionary& dict = *t.dicts_[c];
          w.U32(static_cast<uint32_t>(dict.size()));
          for (Code code = 0; code < dict.size(); ++code) {
            w.Str(dict.ValueOf(code));
          }
          w.Vec(t.code_cols_[c]);
          break;
        }
        case ValueType::kInt64:
        case ValueType::kTimestamp:
          w.Vec(t.int_cols_[c]);
          break;
        case ValueType::kDouble:
          w.Vec(t.dbl_cols_[c]);
          break;
        case ValueType::kNull:
          break;
      }
    }
    return w.Flush(path);
  }

  static Result<std::shared_ptr<EventTable>> Load(const std::string& path) {
    SOLAP_ASSIGN_OR_RETURN(Reader r, Reader::Open(path));
    SOLAP_RETURN_NOT_OK(CheckHeader(r, kKindTable));
    SOLAP_ASSIGN_OR_RETURN(uint32_t nfields, r.U32());
    std::vector<Field> fields(nfields);
    for (Field& f : fields) {
      SOLAP_ASSIGN_OR_RETURN(f.name, r.Str());
      SOLAP_ASSIGN_OR_RETURN(uint8_t type, r.U8());
      SOLAP_ASSIGN_OR_RETURN(uint8_t role, r.U8());
      f.type = static_cast<ValueType>(type);
      f.role = static_cast<FieldRole>(role);
    }
    auto table = std::make_shared<EventTable>(Schema(fields));
    SOLAP_ASSIGN_OR_RETURN(uint64_t nrows, r.U64());
    table->num_rows_ = nrows;
    for (size_t c = 0; c < fields.size(); ++c) {
      switch (fields[c].type) {
        case ValueType::kString: {
          SOLAP_ASSIGN_OR_RETURN(uint32_t dict_size, r.U32());
          for (uint32_t i = 0; i < dict_size; ++i) {
            SOLAP_ASSIGN_OR_RETURN(std::string value, r.Str());
            if (table->dicts_[c]->GetOrAdd(value) != i) {
              return Status::ParseError("duplicate dictionary entry in "
                                        "snapshot");
            }
          }
          SOLAP_ASSIGN_OR_RETURN(table->code_cols_[c], r.Vec<Code>());
          for (Code code : table->code_cols_[c]) {
            if (code >= dict_size) {
              return Status::ParseError("snapshot code out of dictionary "
                                        "range");
            }
          }
          if (table->code_cols_[c].size() != nrows) {
            return Status::ParseError("snapshot column length mismatch");
          }
          break;
        }
        case ValueType::kInt64:
        case ValueType::kTimestamp: {
          SOLAP_ASSIGN_OR_RETURN(table->int_cols_[c], r.Vec<int64_t>());
          if (table->int_cols_[c].size() != nrows) {
            return Status::ParseError("snapshot column length mismatch");
          }
          break;
        }
        case ValueType::kDouble: {
          SOLAP_ASSIGN_OR_RETURN(table->dbl_cols_[c], r.Vec<double>());
          if (table->dbl_cols_[c].size() != nrows) {
            return Status::ParseError("snapshot column length mismatch");
          }
          break;
        }
        case ValueType::kNull:
          return Status::ParseError("snapshot schema has a null column");
      }
    }
    return table;
  }
};

Status SaveTable(const EventTable& table, const std::string& path) {
  return TableIo::Save(table, path);
}

Result<std::shared_ptr<EventTable>> LoadTable(const std::string& path) {
  return TableIo::Load(path);
}

Status SaveTable(const EventTable& table, const std::string& path,
                 const RetryPolicy& retry) {
  return RetryIo(
      retry, [&] { return TableIo::Save(table, path); }, &g_io_retries);
}

Result<std::shared_ptr<EventTable>> LoadTable(const std::string& path,
                                              const RetryPolicy& retry) {
  Result<std::shared_ptr<EventTable>> result =
      Status::Internal("snapshot load never ran");
  Status st = RetryIo(
      retry,
      [&] {
        result = TableIo::Load(path);
        return result.status();
      },
      &g_io_retries);
  if (!st.ok()) return st;
  return result;
}

uint64_t SnapshotIoRetries() {
  return g_io_retries.load(std::memory_order_relaxed);
}

Status SaveIndex(const InvertedIndex& index, const std::string& path) {
  if (index.has_delta()) {
    // Snapshots persist the LOGICAL index. Fold a copy's delta so the
    // on-disk format stays single-segment; the live index is untouched.
    InvertedIndex merged = index;
    merged.MergeDeltaIntoBase();
    return SaveIndex(merged, path);
  }
  Writer w;
  w.Raw(kMagic, 4);
  w.U32(kVersion);
  w.U8(kKindIndex);
  const IndexShape& shape = index.shape();
  w.U8(static_cast<uint8_t>(shape.kind));
  w.U32(static_cast<uint32_t>(shape.size()));
  for (const LevelRef& ref : shape.positions) {
    w.Str(ref.attr);
    w.Str(ref.level);
  }
  w.U8(index.complete() ? 1 : 0);
  w.Str(index.constraint_sig());
  w.U64(index.num_lists());
  for (const auto& [key, list] : index.lists()) {
    w.Raw(key.data(), key.size() * sizeof(Code));
    // Lists are stored in their container representation: the on-disk
    // bytes mirror the in-memory layout, so a dense chunk round-trips as
    // a bitmap without re-deriving the encoding on load.
    w.U32(static_cast<uint32_t>(list.containers().size()));
    for (const SidContainer& c : list.containers()) {
      w.U32(c.key);
      w.U8(static_cast<uint8_t>(c.kind));
      w.U32(c.cardinality);
      if (c.kind == SidContainer::Kind::kBitmap) {
        w.Vec(c.words);
      } else {
        w.Vec(c.values);
      }
    }
  }
  return w.Flush(path);
}

Result<std::shared_ptr<InvertedIndex>> LoadIndex(const std::string& path) {
  SOLAP_ASSIGN_OR_RETURN(Reader r, Reader::Open(path));
  SOLAP_RETURN_NOT_OK(CheckHeader(r, kKindIndex));
  IndexShape shape;
  SOLAP_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
  shape.kind = static_cast<PatternKind>(kind);
  SOLAP_ASSIGN_OR_RETURN(uint32_t m, r.U32());
  shape.positions.resize(m);
  for (LevelRef& ref : shape.positions) {
    SOLAP_ASSIGN_OR_RETURN(ref.attr, r.Str());
    SOLAP_ASSIGN_OR_RETURN(ref.level, r.Str());
  }
  SOLAP_ASSIGN_OR_RETURN(uint8_t complete, r.U8());
  SOLAP_ASSIGN_OR_RETURN(std::string sig, r.Str());
  auto index = std::make_shared<InvertedIndex>(shape, complete != 0);
  index->set_constraint_sig(sig);
  SOLAP_ASSIGN_OR_RETURN(uint64_t nlists, r.U64());
  PatternKey key(m);
  for (uint64_t i = 0; i < nlists; ++i) {
    SOLAP_RETURN_NOT_OK(r.Raw(key.data(), m * sizeof(Code)));
    SOLAP_ASSIGN_OR_RETURN(uint32_t ncontainers, r.U32());
    SidList list;
    list.containers().reserve(ncontainers);
    uint32_t prev_key = 0;
    for (uint32_t c = 0; c < ncontainers; ++c) {
      SidContainer cont;
      SOLAP_ASSIGN_OR_RETURN(uint32_t ckey, r.U32());
      if (ckey > 0xffff || (c > 0 && ckey <= prev_key)) {
        return Status::ParseError("snapshot container keys out of order");
      }
      cont.key = static_cast<uint16_t>(ckey);
      prev_key = ckey;
      SOLAP_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
      SOLAP_ASSIGN_OR_RETURN(cont.cardinality, r.U32());
      switch (kind) {
        case static_cast<uint8_t>(SidContainer::Kind::kArray): {
          cont.kind = SidContainer::Kind::kArray;
          SOLAP_ASSIGN_OR_RETURN(cont.values, r.Vec<uint16_t>());
          if (cont.values.size() != cont.cardinality ||
              cont.cardinality == 0) {
            return Status::ParseError("snapshot array container malformed");
          }
          break;
        }
        case static_cast<uint8_t>(SidContainer::Kind::kBitmap): {
          cont.kind = SidContainer::Kind::kBitmap;
          SOLAP_ASSIGN_OR_RETURN(cont.words, r.Vec<uint64_t>());
          if (cont.words.size() != kContainerWords) {
            return Status::ParseError("snapshot bitmap container malformed");
          }
          uint32_t card = 0;
          for (uint64_t w : cont.words) {
            card += static_cast<uint32_t>(__builtin_popcountll(w));
          }
          if (card != cont.cardinality || card == 0) {
            return Status::ParseError("snapshot bitmap container malformed");
          }
          break;
        }
        case static_cast<uint8_t>(SidContainer::Kind::kRun): {
          cont.kind = SidContainer::Kind::kRun;
          SOLAP_ASSIGN_OR_RETURN(cont.values, r.Vec<uint16_t>());
          if (cont.values.empty() || cont.values.size() % 2 != 0) {
            return Status::ParseError("snapshot run container malformed");
          }
          uint64_t card = 0;
          for (size_t p = 0; p + 1 < cont.values.size(); p += 2) {
            if (cont.values[p + 1] < cont.values[p]) {
              return Status::ParseError("snapshot run container malformed");
            }
            card += cont.values[p + 1] - cont.values[p] + 1;
          }
          if (card != cont.cardinality) {
            return Status::ParseError("snapshot run container malformed");
          }
          break;
        }
        default:
          return Status::ParseError("snapshot container kind unknown");
      }
      list.containers().push_back(std::move(cont));
    }
    list.RecomputeMeta();
    index->lists().emplace(key, std::move(list));
  }
  index->RecountEntries();
  return index;
}

}  // namespace solap
