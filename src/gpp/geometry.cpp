#include "src/gpp/geometry.h"

#include <algorithm>
#include <cmath>

#include "src/support/bits.h"
#include "src/support/error.h"

namespace majc::gpp {
namespace {

constexpr u32 kMagic = 0x4D474F43;  // "MGOC": MAJC geometry codec

/// Zigzag fold: small signed deltas -> small unsigned codes.
constexpr u32 zigzag(i32 v) {
  return (static_cast<u32>(v) << 1) ^ static_cast<u32>(v >> 31);
}
constexpr i32 unzigzag(u32 v) {
  return static_cast<i32>(v >> 1) ^ -static_cast<i32>(v & 1);
}

/// Variable-length code: a 4-bit magnitude-width field, then that many bits.
void put_vlc(BitWriter& w, i32 delta) {
  const u32 z = zigzag(delta);
  u32 width = 0;
  while (width < 15 && z >= (1u << width)) ++width;
  w.put(width, 4);
  if (width > 0) w.put(z & ((1u << width) - 1u), width);
}

i32 get_vlc(BitReader& r) {
  const u32 width = r.get(4);
  const u32 z = width == 0 ? 0 : r.get(width);
  return unzigzag(z);
}

i32 quantize(float v, u32 bits) {
  const float scale = static_cast<float>((1 << (bits - 1)) - 1);
  const float c = std::clamp(v, -1.0f, 1.0f);
  return static_cast<i32>(std::lround(c * scale));
}

float dequantize(i32 q, u32 bits) {
  const float scale = static_cast<float>((1 << (bits - 1)) - 1);
  return static_cast<float>(q) / scale;
}

} // namespace

void BitWriter::put(u32 value, u32 bits) {
  require(bits <= 32, "BitWriter::put supports at most 32 bits");
  for (u32 i = bits; i-- > 0;) {
    acc_ = (acc_ << 1) | ((value >> i) & 1u);
    if (++acc_bits_ == 8) {
      bytes_.push_back(static_cast<u8>(acc_));
      acc_ = 0;
      acc_bits_ = 0;
    }
  }
}

std::vector<u8> BitWriter::finish() {
  if (acc_bits_ != 0) {
    bytes_.push_back(static_cast<u8>(acc_ << (8 - acc_bits_)));
    acc_ = 0;
    acc_bits_ = 0;
  }
  return std::move(bytes_);
}

u32 BitReader::get(u32 bits) {
  require(bits <= 32, "BitReader::get supports at most 32 bits");
  u32 v = 0;
  for (u32 i = 0; i < bits; ++i) {
    const u64 byte = pos_ / 8;
    require(byte < data_.size(), "compressed geometry stream truncated");
    const u32 bit = (data_[byte] >> (7 - pos_ % 8)) & 1u;
    v = (v << 1) | bit;
    ++pos_;
  }
  return v;
}

u32 Mesh::triangle_count() const {
  return triangles_before(static_cast<u32>(vertices.size()));
}

u32 Mesh::triangles_before(u32 v) const {
  u32 tris = 0;
  for (std::size_t s = 0; s < strip_starts.size(); ++s) {
    const u32 start = strip_starts[s];
    const u32 end = (s + 1 < strip_starts.size())
                        ? strip_starts[s + 1]
                        : static_cast<u32>(vertices.size());
    const u32 upto = std::min(v, end);
    if (upto > start + 2) tris += upto - start - 2;
  }
  return tris;
}

Mesh make_test_mesh(u32 vertex_count, u64 seed, u32 strips) {
  Mesh mesh;
  mesh.vertices.reserve(vertex_count);
  SplitMix64 rng(seed);
  if (vertex_count > 0) {
    strips = std::max(1u, std::min(strips, vertex_count));
    for (u32 s = 0; s < strips; ++s) {
      mesh.strip_starts.push_back(s * (vertex_count / strips));
    }
  }
  // Sweep a gently displaced grid surface in strip order. Strides are small
  // relative to the quantization grid so deltas entropy-code well.
  const u32 row = 64;
  for (u32 i = 0; i < vertex_count; ++i) {
    const u32 gx = i % row;
    const u32 gy = i / row;
    Vertex v;
    v.x = -1.0f + 2.0f * static_cast<float>(gx) / row;
    v.y = -1.0f + 0.02f * static_cast<float>(gy);
    v.z = 0.25f * std::sin(0.3f * static_cast<float>(gx)) *
              std::cos(0.2f * static_cast<float>(gy)) +
          0.01f * static_cast<float>(rng.next_double() - 0.5);
    // Analytic-ish surface normal, normalized.
    const float dzdx = 0.075f * std::cos(0.3f * static_cast<float>(gx));
    const float dzdy = -0.05f * std::sin(0.2f * static_cast<float>(gy));
    const float len = std::sqrt(dzdx * dzdx + dzdy * dzdy + 1.0f);
    v.nx = -dzdx / len;
    v.ny = -dzdy / len;
    v.nz = 1.0f / len;
    v.r = static_cast<u8>(64 + (gx * 3) % 128);
    v.g = static_cast<u8>(64 + (gy * 5) % 128);
    v.b = static_cast<u8>(128 + (gx + gy) % 64);
    mesh.vertices.push_back(v);
  }
  return mesh;
}

std::vector<u8> compress(const Mesh& mesh) {
  BitWriter w;
  w.put(kMagic, 32);
  w.put(static_cast<u32>(mesh.vertices.size()), 32);

  i32 px = 0, py = 0, pz = 0;
  i32 pnx = 0, pny = 0, pnz = 0;
  i32 pr = 0, pg = 0, pb = 0;
  std::size_t next_restart = 0;
  for (u32 i = 0; i < mesh.vertices.size(); ++i) {
    const Vertex& v = mesh.vertices[i];
    // Strip restart mark (vertex 0 always restarts).
    const bool restart = next_restart < mesh.strip_starts.size() &&
                         mesh.strip_starts[next_restart] == i;
    if (restart) ++next_restart;
    w.put(restart ? 1 : 0, 1);
    const i32 qx = quantize(v.x, kPositionBits);
    const i32 qy = quantize(v.y, kPositionBits);
    const i32 qz = quantize(v.z, kPositionBits);
    put_vlc(w, qx - px);
    put_vlc(w, qy - py);
    put_vlc(w, qz - pz);
    px = qx; py = qy; pz = qz;

    const i32 qnx = quantize(v.nx, kNormalBits);
    const i32 qny = quantize(v.ny, kNormalBits);
    const i32 qnz = quantize(v.nz, kNormalBits);
    put_vlc(w, qnx - pnx);
    put_vlc(w, qny - pny);
    put_vlc(w, qnz - pnz);
    pnx = qnx; pny = qny; pnz = qnz;

    put_vlc(w, static_cast<i32>(v.r) - pr);
    put_vlc(w, static_cast<i32>(v.g) - pg);
    put_vlc(w, static_cast<i32>(v.b) - pb);
    pr = v.r; pg = v.g; pb = v.b;
  }
  return w.finish();
}

Mesh decompress(std::span<const u8> stream) {
  BitReader r(stream);
  require(r.get(32) == kMagic, "bad compressed geometry magic");
  const u32 count = r.get(32);
  Mesh mesh;
  mesh.vertices.reserve(count);

  i32 px = 0, py = 0, pz = 0;
  i32 pnx = 0, pny = 0, pnz = 0;
  i32 pr = 0, pg = 0, pb = 0;
  for (u32 i = 0; i < count; ++i) {
    Vertex v;
    if (r.get(1) != 0) mesh.strip_starts.push_back(i);
    px += get_vlc(r);
    py += get_vlc(r);
    pz += get_vlc(r);
    v.x = dequantize(px, kPositionBits);
    v.y = dequantize(py, kPositionBits);
    v.z = dequantize(pz, kPositionBits);

    pnx += get_vlc(r);
    pny += get_vlc(r);
    pnz += get_vlc(r);
    v.nx = dequantize(pnx, kNormalBits);
    v.ny = dequantize(pny, kNormalBits);
    v.nz = dequantize(pnz, kNormalBits);

    pr += get_vlc(r);
    pg += get_vlc(r);
    pb += get_vlc(r);
    v.r = static_cast<u8>(pr);
    v.g = static_cast<u8>(pg);
    v.b = static_cast<u8>(pb);
    mesh.vertices.push_back(v);
  }
  return mesh;
}

double compression_ratio(const Mesh& mesh, std::span<const u8> stream) {
  if (stream.empty()) return 0.0;
  return static_cast<double>(mesh.raw_bytes()) /
         static_cast<double>(stream.size());
}

double position_tolerance() {
  return 1.0 / static_cast<double>((1 << (kPositionBits - 1)) - 1);
}

} // namespace majc::gpp
