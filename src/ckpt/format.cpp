#include "ckpt/format.hpp"

#include <array>

namespace avgpipe::ckpt {

namespace {

/// Slicing-by-8 tables for the reflected polynomial 0xEDB88320, built once.
/// tables[0] is the classic byte-at-a-time table; tables[k][b] is the CRC of
/// byte b followed by k zero bytes, so eight table lookups fold eight input
/// bytes per step and give the same CRC as the bytewise loop.
const std::array<std::array<std::uint32_t, 256>, 8>& crc_tables() {
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto& t = crc_tables();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  // Eight bytes per step; the bytes are assembled explicitly (little-endian
  // order), so the result does not depend on host byte order or alignment.
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo =
        c ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
             std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; size > 0; ++p, --size) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void write_tensor(ByteWriter& w, const tensor::Tensor& t) {
  const auto& shape = t.shape();
  w.u32(static_cast<std::uint32_t>(shape.size()));
  for (const std::size_t d : shape) w.u64(d);
  const auto v = t.data();
  // One raw memcpy of the whole buffer: Scalar is double and the encoding is
  // its IEEE-754 bytes, so per-element f64() calls would only add overhead.
  static_assert(sizeof(tensor::Scalar) == 8, "Scalar must be f64 on disk");
  w.bytes(v.data(), v.size() * sizeof(tensor::Scalar));
}

tensor::Tensor read_tensor(ByteReader& r) {
  const std::uint32_t ndim = r.u32();
  AVGPIPE_CHECK(ndim <= 8, "tensor record: implausible rank " << ndim);
  tensor::Shape shape(ndim);
  for (auto& d : shape) {
    d = static_cast<std::size_t>(r.u64());
    AVGPIPE_CHECK(d > 0 && d <= (1ull << 32),
                  "tensor record: implausible dim " << d);
  }
  tensor::Tensor t = tensor::Tensor::uninitialized(shape);
  auto v = t.data();
  const std::uint8_t* raw = r.bytes(v.size() * sizeof(tensor::Scalar));
  std::memcpy(v.data(), raw, v.size() * sizeof(tensor::Scalar));
  return t;
}

void write_tensor_list(ByteWriter& w, const std::vector<tensor::Tensor>& ts) {
  w.u32(static_cast<std::uint32_t>(ts.size()));
  for (const auto& t : ts) write_tensor(w, t);
}

std::vector<tensor::Tensor> read_tensor_list(ByteReader& r) {
  const std::uint32_t n = r.u32();
  std::vector<tensor::Tensor> ts;
  ts.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) ts.push_back(read_tensor(r));
  return ts;
}

void write_optimizer_state(ByteWriter& w, const optim::OptimizerState& s) {
  w.str(s.name);
  w.u64(s.steps);
  w.u32(static_cast<std::uint32_t>(s.scalars.size()));
  for (const double v : s.scalars) w.f64(v);
  write_tensor_list(w, s.slots);
}

optim::OptimizerState read_optimizer_state(ByteReader& r) {
  optim::OptimizerState s;
  s.name = r.str();
  s.steps = static_cast<std::size_t>(r.u64());
  const std::uint32_t n = r.u32();
  s.scalars.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) s.scalars.push_back(r.f64());
  s.slots = read_tensor_list(r);
  return s;
}

}  // namespace avgpipe::ckpt
