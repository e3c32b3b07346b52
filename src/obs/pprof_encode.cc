#include "obs/pprof_encode.h"

#include <algorithm>
#include <array>
#include <cstddef>

namespace janus {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Protobuf wire-format primitives
// ---------------------------------------------------------------------------

enum WireType : std::uint32_t {
  kVarint = 0,
  kLengthDelimited = 2,
};

void AppendVarint(std::string* out, std::uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

void AppendTag(std::string* out, std::uint32_t field, WireType wire) {
  AppendVarint(out, (static_cast<std::uint64_t>(field) << 3) | wire);
}

void AppendVarintField(std::string* out, std::uint32_t field,
                       std::uint64_t value) {
  if (value == 0) return;  // proto3 default, omitted
  AppendTag(out, field, kVarint);
  AppendVarint(out, value);
}

void AppendBytesField(std::string* out, std::uint32_t field,
                      std::string_view bytes) {
  AppendTag(out, field, kLengthDelimited);
  AppendVarint(out, bytes.size());
  out->append(bytes.data(), bytes.size());
}

void AppendPackedField(std::string* out, std::uint32_t field,
                       const std::vector<std::uint64_t>& values) {
  if (values.empty()) return;
  std::string packed;
  for (const std::uint64_t v : values) AppendVarint(&packed, v);
  AppendBytesField(out, field, packed);
}

// Interned pprof string table; index 0 is always "".
class StringTable {
 public:
  StringTable() { Intern(""); }

  std::uint64_t Intern(const std::string& text) {
    const auto it = index_.find(text);
    if (it != index_.end()) return it->second;
    const std::uint64_t id = strings_.size();
    strings_.push_back(text);
    index_.emplace(text, id);
    return id;
  }

  const std::vector<std::string>& strings() const { return strings_; }

 private:
  std::vector<std::string> strings_;
  std::map<std::string, std::uint64_t> index_;
};

// ---------------------------------------------------------------------------
// CRC-32 (gzip trailer)
// ---------------------------------------------------------------------------

const std::array<std::uint32_t, 256>& Crc32Table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[n] = c;
    }
    return t;
  }();
  return table;
}

std::uint32_t Crc32(std::string_view data) {
  const auto& table = Crc32Table();
  std::uint32_t crc = 0xffffffffu;
  for (const char c : data) {
    crc = table[(crc ^ static_cast<unsigned char>(c)) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

void AppendLe32(std::string* out, std::uint32_t value) {
  out->push_back(static_cast<char>(value & 0xff));
  out->push_back(static_cast<char>((value >> 8) & 0xff));
  out->push_back(static_cast<char>((value >> 16) & 0xff));
  out->push_back(static_cast<char>((value >> 24) & 0xff));
}

// ---------------------------------------------------------------------------
// Wire-format reader (decoder half)
// ---------------------------------------------------------------------------

class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  bool done() const { return pos_ >= data_.size(); }

  bool ReadVarint(std::uint64_t* value) {
    *value = 0;
    int shift = 0;
    while (pos_ < data_.size() && shift < 64) {
      const auto byte = static_cast<unsigned char>(data_[pos_++]);
      *value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return true;
      shift += 7;
    }
    return false;
  }

  bool ReadTag(std::uint32_t* field, std::uint32_t* wire) {
    std::uint64_t tag = 0;
    if (!ReadVarint(&tag)) return false;
    *field = static_cast<std::uint32_t>(tag >> 3);
    *wire = static_cast<std::uint32_t>(tag & 0x7);
    return true;
  }

  bool ReadBytes(std::string_view* bytes) {
    std::uint64_t length = 0;
    if (!ReadVarint(&length)) return false;
    if (length > data_.size() - pos_) return false;
    *bytes = data_.substr(pos_, length);
    pos_ += length;
    return true;
  }

  // Skips one field of the given wire type (varint and length-delimited
  // only — the encoder never emits fixed32/64).
  bool SkipField(std::uint32_t wire) {
    if (wire == kVarint) {
      std::uint64_t ignored = 0;
      return ReadVarint(&ignored);
    }
    if (wire == kLengthDelimited) {
      std::string_view ignored;
      return ReadBytes(&ignored);
    }
    return false;
  }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

// Reads a repeated integer field that may be packed or not.
bool ReadRepeatedInts(Cursor* cursor, std::uint32_t wire,
                      std::vector<std::uint64_t>* out) {
  if (wire == kVarint) {
    std::uint64_t value = 0;
    if (!cursor->ReadVarint(&value)) return false;
    out->push_back(value);
    return true;
  }
  if (wire == kLengthDelimited) {
    std::string_view packed;
    if (!cursor->ReadBytes(&packed)) return false;
    Cursor inner(packed);
    while (!inner.done()) {
      std::uint64_t value = 0;
      if (!inner.ReadVarint(&value)) return false;
      out->push_back(value);
    }
    return true;
  }
  return false;
}

bool FailDecode(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

std::string EncodeProfileProto(const std::vector<ProfileSample>& samples) {
  StringTable strings;

  // Function table: one entry per distinct name (imperative functions and
  // leaf op pseudo-functions share the table; pprof only needs names).
  std::map<std::string, std::uint64_t> function_ids;
  std::string functions;
  const auto function_of = [&](const std::string& name) {
    const auto it = function_ids.find(name);
    if (it != function_ids.end()) return it->second;
    const std::uint64_t id = function_ids.size() + 1;  // ids are 1-based
    function_ids.emplace(name, id);
    std::string fn;
    AppendVarintField(&fn, 1, id);                       // Function.id
    AppendVarintField(&fn, 2, strings.Intern(name));     // Function.name
    AppendVarintField(&fn, 4, strings.Intern("<janus>"));  // filename
    AppendBytesField(&functions, 5, fn);  // Profile.function
    return id;
  };

  // Location table: one entry per (function, line).
  std::map<std::pair<std::uint64_t, std::int64_t>, std::uint64_t>
      location_ids;
  std::string locations;
  const auto location_of = [&](const std::string& name, std::int64_t line) {
    const std::uint64_t fn_id = function_of(name);
    const auto key = std::make_pair(fn_id, line);
    const auto it = location_ids.find(key);
    if (it != location_ids.end()) return it->second;
    const std::uint64_t id = location_ids.size() + 1;
    location_ids.emplace(key, id);
    std::string loc_line;
    AppendVarintField(&loc_line, 1, fn_id);  // Line.function_id
    AppendVarintField(&loc_line, 2, static_cast<std::uint64_t>(line));
    std::string loc;
    AppendVarintField(&loc, 1, id);     // Location.id
    AppendBytesField(&loc, 4, loc_line);  // Location.line
    AppendBytesField(&locations, 4, loc);  // Profile.location
    return id;
  };

  const auto label_of = [&](const std::string& key, const std::string& str) {
    std::string label;
    AppendVarintField(&label, 1, strings.Intern(key));  // Label.key
    AppendVarintField(&label, 2, strings.Intern(str));  // Label.str
    return label;
  };

  std::string sample_bytes;
  for (const ProfileSample& sample : samples) {
    const std::string function =
        sample.function.empty() ? "<unknown>" : sample.function;
    // Leaf-first stack: op -> statement (function:line) -> function.
    std::vector<std::uint64_t> stack;
    stack.push_back(location_of(sample.op, 0));
    stack.push_back(location_of(function, sample.line));
    stack.push_back(location_of(function, 0));

    std::string entry;
    AppendPackedField(&entry, 1, stack);  // Sample.location_id
    AppendPackedField(&entry, 2,
                      {sample.count, sample.total_ns});  // Sample.value
    if (!sample.unit.empty()) {
      AppendBytesField(&entry, 3, label_of("unit", sample.unit));
    }
    if (!sample.variant.empty()) {
      AppendBytesField(&entry, 3, label_of("variant", sample.variant));
    }
    AppendBytesField(&entry, 3,
                     label_of("level", std::to_string(sample.level)));
    AppendBytesField(&entry, 3, label_of("node", sample.node));
    AppendBytesField(&sample_bytes, 2, entry);  // Profile.sample
  }

  std::string sample_types;
  {
    std::string vt;
    AppendVarintField(&vt, 1, strings.Intern("executions"));
    AppendVarintField(&vt, 2, strings.Intern("count"));
    AppendBytesField(&sample_types, 1, vt);  // Profile.sample_type
  }
  {
    std::string vt;
    AppendVarintField(&vt, 1, strings.Intern("time"));
    AppendVarintField(&vt, 2, strings.Intern("nanoseconds"));
    AppendBytesField(&sample_types, 1, vt);
  }
  std::string period_type;
  AppendVarintField(&period_type, 1, strings.Intern("time"));
  AppendVarintField(&period_type, 2, strings.Intern("nanoseconds"));

  std::string profile;
  profile += sample_types;
  profile += sample_bytes;
  profile += locations;
  profile += functions;
  for (const std::string& text : strings.strings()) {
    AppendBytesField(&profile, 6, text);  // Profile.string_table
  }
  AppendBytesField(&profile, 11, period_type);  // Profile.period_type
  AppendVarintField(&profile, 12, kProfileSampleEvery);  // Profile.period
  return profile;
}

std::string SerializeCurrentProfileProto() {
  return EncodeProfileProto(CollectProfileSamples());
}

// ---------------------------------------------------------------------------
// Gzip (stored deflate)
// ---------------------------------------------------------------------------

std::string GzipCompress(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + raw.size() / 65535 * 5 + 32);
  // RFC 1952 header: magic, deflate method, no flags, mtime 0, XFL 0,
  // OS 3 (unix).
  const char header[] = {'\x1f', '\x8b', '\x08', '\x00', '\x00',
                         '\x00', '\x00', '\x00', '\x00', '\x03'};
  out.append(header, sizeof(header));
  // Stored deflate blocks, <= 65535 bytes each.
  std::size_t pos = 0;
  do {
    const std::size_t chunk = std::min<std::size_t>(65535, raw.size() - pos);
    const bool final_block = pos + chunk == raw.size();
    out.push_back(final_block ? '\x01' : '\x00');  // BFINAL | BTYPE=00
    const auto len = static_cast<std::uint16_t>(chunk);
    out.push_back(static_cast<char>(len & 0xff));
    out.push_back(static_cast<char>(len >> 8));
    out.push_back(static_cast<char>(~len & 0xff));
    out.push_back(static_cast<char>((~len >> 8) & 0xff));
    out.append(raw.data() + pos, chunk);
    pos += chunk;
  } while (pos < raw.size());
  AppendLe32(&out, Crc32(raw));
  AppendLe32(&out, static_cast<std::uint32_t>(raw.size()));
  return out;
}

bool GunzipStored(std::string_view data, std::string* out,
                  std::string* error) {
  if (data.size() < 18) return FailDecode(error, "gzip data too short");
  if (static_cast<unsigned char>(data[0]) != 0x1f ||
      static_cast<unsigned char>(data[1]) != 0x8b) {
    return FailDecode(error, "missing gzip magic");
  }
  if (data[2] != 8) return FailDecode(error, "unsupported gzip method");
  if (data[3] != 0) {
    return FailDecode(error, "unsupported gzip flags (expected none)");
  }
  std::size_t pos = 10;
  std::string inflated;
  while (true) {
    if (pos >= data.size() - 8) {
      return FailDecode(error, "truncated deflate stream");
    }
    const auto block = static_cast<unsigned char>(data[pos++]);
    if (((block >> 1) & 0x3) != 0) {
      return FailDecode(error,
                        "unsupported deflate block type (stored only)");
    }
    if (pos + 4 > data.size() - 8) {
      return FailDecode(error, "truncated stored-block header");
    }
    const std::uint16_t len =
        static_cast<unsigned char>(data[pos]) |
        (static_cast<std::uint16_t>(static_cast<unsigned char>(data[pos + 1]))
         << 8);
    const std::uint16_t nlen =
        static_cast<unsigned char>(data[pos + 2]) |
        (static_cast<std::uint16_t>(static_cast<unsigned char>(data[pos + 3]))
         << 8);
    pos += 4;
    if (static_cast<std::uint16_t>(~len) != nlen) {
      return FailDecode(error, "stored-block LEN/NLEN mismatch");
    }
    if (pos + len > data.size() - 8) {
      return FailDecode(error, "truncated stored-block payload");
    }
    inflated.append(data.data() + pos, len);
    pos += len;
    if ((block & 1) != 0) break;
  }
  const auto read_le32 = [&](std::size_t at) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(data[at])) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(
                data[at + 1]))
            << 8) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(
                data[at + 2]))
            << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(
                data[at + 3]))
            << 24);
  };
  if (pos + 8 > data.size()) return FailDecode(error, "missing gzip trailer");
  if (read_le32(pos) != Crc32(inflated)) {
    return FailDecode(error, "gzip CRC-32 mismatch");
  }
  if (read_le32(pos + 4) !=
      static_cast<std::uint32_t>(inflated.size() & 0xffffffffu)) {
    return FailDecode(error, "gzip ISIZE mismatch");
  }
  if (out != nullptr) *out = std::move(inflated);
  return true;
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

bool DecodePprof(std::string_view data, DecodedPprof* out,
                 std::string* error) {
  std::string inflated;
  if (data.size() >= 2 && static_cast<unsigned char>(data[0]) == 0x1f &&
      static_cast<unsigned char>(data[1]) == 0x8b) {
    if (!GunzipStored(data, &inflated, error)) return false;
    data = inflated;
  }

  std::vector<std::string> strings;
  struct RawFunction {
    std::uint64_t name_idx = 0;
  };
  std::map<std::uint64_t, RawFunction> functions;
  struct RawLine {
    std::uint64_t function_id = 0;
    std::int64_t line = 0;
  };
  std::map<std::uint64_t, std::vector<RawLine>> locations;
  struct RawSample {
    std::vector<std::uint64_t> location_ids;
    std::vector<std::uint64_t> values;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> labels;
  };
  std::vector<RawSample> samples;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sample_types;

  Cursor cursor(data);
  while (!cursor.done()) {
    std::uint32_t field = 0;
    std::uint32_t wire = 0;
    if (!cursor.ReadTag(&field, &wire)) {
      return FailDecode(error, "malformed top-level tag");
    }
    switch (field) {
      case 1: {  // sample_type
        std::string_view bytes;
        if (wire != kLengthDelimited || !cursor.ReadBytes(&bytes)) {
          return FailDecode(error, "malformed sample_type");
        }
        Cursor vt(bytes);
        std::uint64_t type_idx = 0;
        std::uint64_t unit_idx = 0;
        while (!vt.done()) {
          std::uint32_t f = 0;
          std::uint32_t w = 0;
          if (!vt.ReadTag(&f, &w)) {
            return FailDecode(error, "malformed ValueType");
          }
          std::uint64_t value = 0;
          if (f == 1 && w == kVarint) {
            if (!vt.ReadVarint(&value)) {
              return FailDecode(error, "malformed ValueType.type");
            }
            type_idx = value;
          } else if (f == 2 && w == kVarint) {
            if (!vt.ReadVarint(&value)) {
              return FailDecode(error, "malformed ValueType.unit");
            }
            unit_idx = value;
          } else if (!vt.SkipField(w)) {
            return FailDecode(error, "malformed ValueType field");
          }
        }
        sample_types.emplace_back(type_idx, unit_idx);
        break;
      }
      case 2: {  // sample
        std::string_view bytes;
        if (wire != kLengthDelimited || !cursor.ReadBytes(&bytes)) {
          return FailDecode(error, "malformed sample");
        }
        RawSample sample;
        Cursor sc(bytes);
        while (!sc.done()) {
          std::uint32_t f = 0;
          std::uint32_t w = 0;
          if (!sc.ReadTag(&f, &w)) {
            return FailDecode(error, "malformed Sample tag");
          }
          if (f == 1) {
            if (!ReadRepeatedInts(&sc, w, &sample.location_ids)) {
              return FailDecode(error, "malformed Sample.location_id");
            }
          } else if (f == 2) {
            if (!ReadRepeatedInts(&sc, w, &sample.values)) {
              return FailDecode(error, "malformed Sample.value");
            }
          } else if (f == 3 && w == kLengthDelimited) {
            std::string_view label_bytes;
            if (!sc.ReadBytes(&label_bytes)) {
              return FailDecode(error, "malformed Sample.label");
            }
            Cursor lc(label_bytes);
            std::uint64_t key_idx = 0;
            std::uint64_t str_idx = 0;
            while (!lc.done()) {
              std::uint32_t lf = 0;
              std::uint32_t lw = 0;
              if (!lc.ReadTag(&lf, &lw)) {
                return FailDecode(error, "malformed Label tag");
              }
              std::uint64_t value = 0;
              if (lf == 1 && lw == kVarint) {
                if (!lc.ReadVarint(&value)) {
                  return FailDecode(error, "malformed Label.key");
                }
                key_idx = value;
              } else if (lf == 2 && lw == kVarint) {
                if (!lc.ReadVarint(&value)) {
                  return FailDecode(error, "malformed Label.str");
                }
                str_idx = value;
              } else if (!lc.SkipField(lw)) {
                return FailDecode(error, "malformed Label field");
              }
            }
            sample.labels.emplace_back(key_idx, str_idx);
          } else if (!sc.SkipField(w)) {
            return FailDecode(error, "malformed Sample field");
          }
        }
        samples.push_back(std::move(sample));
        break;
      }
      case 4: {  // location
        std::string_view bytes;
        if (wire != kLengthDelimited || !cursor.ReadBytes(&bytes)) {
          return FailDecode(error, "malformed location");
        }
        std::uint64_t id = 0;
        std::vector<RawLine> lines;
        Cursor lc(bytes);
        while (!lc.done()) {
          std::uint32_t f = 0;
          std::uint32_t w = 0;
          if (!lc.ReadTag(&f, &w)) {
            return FailDecode(error, "malformed Location tag");
          }
          if (f == 1 && w == kVarint) {
            if (!lc.ReadVarint(&id)) {
              return FailDecode(error, "malformed Location.id");
            }
          } else if (f == 4 && w == kLengthDelimited) {
            std::string_view line_bytes;
            if (!lc.ReadBytes(&line_bytes)) {
              return FailDecode(error, "malformed Location.line");
            }
            RawLine line;
            Cursor linec(line_bytes);
            while (!linec.done()) {
              std::uint32_t lf = 0;
              std::uint32_t lw = 0;
              if (!linec.ReadTag(&lf, &lw)) {
                return FailDecode(error, "malformed Line tag");
              }
              std::uint64_t value = 0;
              if (lf == 1 && lw == kVarint) {
                if (!linec.ReadVarint(&value)) {
                  return FailDecode(error, "malformed Line.function_id");
                }
                line.function_id = value;
              } else if (lf == 2 && lw == kVarint) {
                if (!linec.ReadVarint(&value)) {
                  return FailDecode(error, "malformed Line.line");
                }
                line.line = static_cast<std::int64_t>(value);
              } else if (!linec.SkipField(lw)) {
                return FailDecode(error, "malformed Line field");
              }
            }
            lines.push_back(line);
          } else if (!lc.SkipField(w)) {
            return FailDecode(error, "malformed Location field");
          }
        }
        if (id == 0) return FailDecode(error, "Location without id");
        locations[id] = std::move(lines);
        break;
      }
      case 5: {  // function
        std::string_view bytes;
        if (wire != kLengthDelimited || !cursor.ReadBytes(&bytes)) {
          return FailDecode(error, "malformed function");
        }
        std::uint64_t id = 0;
        RawFunction fn;
        Cursor fc(bytes);
        while (!fc.done()) {
          std::uint32_t f = 0;
          std::uint32_t w = 0;
          if (!fc.ReadTag(&f, &w)) {
            return FailDecode(error, "malformed Function tag");
          }
          std::uint64_t value = 0;
          if (f == 1 && w == kVarint) {
            if (!fc.ReadVarint(&id)) {
              return FailDecode(error, "malformed Function.id");
            }
          } else if (f == 2 && w == kVarint) {
            if (!fc.ReadVarint(&value)) {
              return FailDecode(error, "malformed Function.name");
            }
            fn.name_idx = value;
          } else if (!fc.SkipField(w)) {
            return FailDecode(error, "malformed Function field");
          }
        }
        if (id == 0) return FailDecode(error, "Function without id");
        functions[id] = fn;
        break;
      }
      case 6: {  // string_table
        std::string_view bytes;
        if (wire != kLengthDelimited || !cursor.ReadBytes(&bytes)) {
          return FailDecode(error, "malformed string_table entry");
        }
        strings.emplace_back(bytes);
        break;
      }
      default:
        if (!cursor.SkipField(wire)) {
          return FailDecode(error, "malformed field " + std::to_string(field));
        }
    }
  }

  if (strings.empty() || !strings[0].empty()) {
    return FailDecode(error, "string_table[0] must be \"\"");
  }
  const auto string_at = [&](std::uint64_t idx) -> const std::string& {
    static const std::string empty;
    return idx < strings.size() ? strings[idx] : empty;
  };

  DecodedPprof decoded;
  for (const auto& [type_idx, unit_idx] : sample_types) {
    decoded.sample_types.emplace_back(string_at(type_idx),
                                      string_at(unit_idx));
  }
  for (const RawSample& raw : samples) {
    DecodedPprof::Sample sample;
    for (const std::uint64_t loc_id : raw.location_ids) {
      const auto loc_it = locations.find(loc_id);
      if (loc_it == locations.end()) {
        return FailDecode(error,
                          "sample references unknown location " +
                              std::to_string(loc_id));
      }
      for (const RawLine& line : loc_it->second) {
        const auto fn_it = functions.find(line.function_id);
        if (fn_it == functions.end()) {
          return FailDecode(error,
                            "line references unknown function " +
                                std::to_string(line.function_id));
        }
        std::string frame = string_at(fn_it->second.name_idx);
        if (line.line > 0) {
          frame += ':';
          frame += std::to_string(line.line);
        }
        sample.stack.push_back(std::move(frame));
      }
    }
    for (const std::uint64_t value : raw.values) {
      sample.values.push_back(static_cast<std::int64_t>(value));
    }
    for (const auto& [key_idx, str_idx] : raw.labels) {
      sample.labels[string_at(key_idx)] = string_at(str_idx);
    }
    decoded.samples.push_back(std::move(sample));
  }
  if (out != nullptr) *out = std::move(decoded);
  return true;
}

}  // namespace obs
}  // namespace janus
