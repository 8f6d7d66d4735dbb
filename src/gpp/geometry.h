// Compressed geometry: the GPP's input format.
//
// MAJC-5200's graphics preprocessor has "built-in support for real-time 3D
// geometry decompressing, data parsing, and load balancing between the two
// processors" (paper §3.1, §5). The original chip consumed Sun Compressed
// Geometry streams; that format is proprietary, so this module implements a
// functionally equivalent codec with the same structure (DESIGN.md §5.2):
// triangle-strip vertices, quantized positions/normals, delta coding and
// variable-length entropy coding. What matters for reproduction is that the
// GPP exercises a real decompress-parse-distribute path with a realistic
// compression ratio (~4-8x vs. raw floats), which this provides.
#pragma once

#include <span>
#include <vector>

#include "src/support/rng.h"
#include "src/support/types.h"

namespace majc::gpp {

struct Vertex {
  float x = 0, y = 0, z = 0;     // position
  float nx = 0, ny = 0, nz = 1;  // unit normal
  u8 r = 0, g = 0, b = 0;        // color

  static constexpr u32 kRawBytes = 27;  // 6 floats + 3 color bytes
};

/// Triangle strips: `strip_starts` lists the first vertex of each strip
/// (it always begins with 0 for a non-empty mesh); within a strip every
/// vertex after the first two closes a triangle. Real compressed-geometry
/// streams are sequences of strips with restart marks, which the codec
/// encodes as a per-vertex restart bit.
struct Mesh {
  std::vector<Vertex> vertices;
  std::vector<u32> strip_starts;

  u32 triangle_count() const;
  /// Triangles closed by vertices with index < v (monotone; used by the
  /// GPP's batcher to attribute triangles to batches).
  u32 triangles_before(u32 v) const;
  u32 raw_bytes() const {
    return static_cast<u32>(vertices.size()) * Vertex::kRawBytes;
  }
};

/// Deterministic synthetic mesh: a smooth displaced surface swept in strip
/// order, so position/normal deltas between consecutive vertices are small —
/// the property real strip-ordered geometry has and the codec exploits.
/// `strips` splits the sweep into that many restart-separated strips.
Mesh make_test_mesh(u32 vertex_count, u64 seed, u32 strips = 1);

/// Bit-granular big-endian writer/reader (the GPP parses the stream with
/// the CPUs' BEXT-style MSB-first orientation).
class BitWriter {
public:
  void put(u32 value, u32 bits);
  std::vector<u8> finish();

private:
  std::vector<u8> bytes_;
  u32 acc_ = 0;
  u32 acc_bits_ = 0;
};

class BitReader {
public:
  explicit BitReader(std::span<const u8> data) : data_(data) {}
  u32 get(u32 bits);

private:
  std::span<const u8> data_;
  u64 pos_ = 0;  // absolute bit position
};

/// Quantization parameters (positions to a 2^bits grid over [-1, 1],
/// normals to 8 bits per component).
inline constexpr u32 kPositionBits = 14;
inline constexpr u32 kNormalBits = 8;

std::vector<u8> compress(const Mesh& mesh);
Mesh decompress(std::span<const u8> stream);

/// Raw size / compressed size.
double compression_ratio(const Mesh& mesh, std::span<const u8> stream);

/// Maximum position error the quantizer may introduce.
double position_tolerance();

} // namespace majc::gpp
