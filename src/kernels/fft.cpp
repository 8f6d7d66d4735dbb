#include "src/kernels/fft.h"

#include <cmath>
#include <cstring>
#include <numbers>
#include <stdexcept>

#include "src/kernels/codegen.h"
#include "src/kernels/dsp_data.h"

namespace majc::kernels {
namespace {

std::vector<std::complex<float>> random_complex(u32 n, u64 seed) {
  std::vector<std::complex<float>> v(n);
  SplitMix64 rng(seed);
  for (auto& c : v) {
    c = {static_cast<float>(rng.next_double(-1.0, 1.0)),
         static_cast<float>(rng.next_double(-1.0, 1.0))};
  }
  return v;
}

std::vector<float> flatten(const std::vector<std::complex<float>>& v) {
  std::vector<float> f;
  f.reserve(v.size() * 2);
  for (const auto& c : v) {
    f.push_back(c.real());
    f.push_back(c.imag());
  }
  return f;
}

/// Forward twiddles W[k] = exp(-2*pi*i*k / N), k = 0 .. count-1.
std::vector<std::complex<float>> twiddles(u32 count) {
  std::vector<std::complex<float>> w(count);
  for (u32 k = 0; k < count; ++k) {
    const double a = -2.0 * std::numbers::pi * k / kFftN;
    w[k] = {static_cast<float>(std::cos(a)), static_cast<float>(std::sin(a))};
  }
  return w;
}

/// The expected spectrum of one FFT spec's input and the tolerance the
/// guest's FP32 result is held to. Built once with the spec and captured by
/// value in its validate closure, so validating a job only compares bins.
struct FftGolden {
  std::vector<std::complex<double>> spectrum;
  double tol = 0.0;
};

FftGolden make_fft_golden(const std::vector<std::complex<float>>& input) {
  FftGolden g;
  g.spectrum = reference_dft(input);
  double maxmag = 0.0;
  for (const auto& e : g.spectrum) maxmag = std::max(maxmag, std::abs(e));
  g.tol = 2e-4 * maxmag;  // FP32 accumulation over 10 stages
  return g;
}

bool validate_fft(sim::MemoryBus& mem, const masm::Image& img,
                  const FftGolden& golden, std::string& msg) {
  const auto& expect = golden.spectrum;
  const double tol = golden.tol;
  const Addr xa = img.symbol("xarr");
  for (u32 k = 0; k < kFftN; ++k) {
    float re, im;
    u32 raw = mem.read_u32(xa + 8 * k);
    std::memcpy(&re, &raw, 4);
    raw = mem.read_u32(xa + 8 * k + 4);
    std::memcpy(&im, &raw, 4);
    // Written as !(err <= tol) so a NaN bin fails.
    if (!(std::abs(re - expect[k].real()) <= tol) ||
        !(std::abs(im - expect[k].imag()) <= tol)) {
      msg = "X[" + std::to_string(k) + "] = (" + std::to_string(re) + "," +
            std::to_string(im) + "), expected (" +
            std::to_string(expect[k].real()) + "," +
            std::to_string(expect[k].imag()) + "), tol " + std::to_string(tol);
      return false;
    }
  }
  return true;
}

// ---- radix-2 ----
//
// Register map: g4/g5 = a/b pointers (butterfly A), g6/g7 = (butterfly B),
// g8:g9 = twiddle (wi:wr), g12 = xbase, g13 = tw ptr, g14 = jB (byte offset
// of j within a group), g15 = group-pair counter, g16..g35 = data/results,
// g36:g37 = second twiddle (final stage), g42 = halfB, g49 = mB,
// g50 = 2*mB, g43 = tw byte step, g44 = stage counter, g48 = group pairs,
// g52 = j count, g53 = j loop counter.
//
// Data regs per butterfly: a = (ai, ar) even:odd, b = (bi, br);
// results a' = g22(ai'):g23(ar'), b' = g24:g25; B set offset +10.

void emit_r2_pair_body(AsmBuilder& b) {
  b.line("ldli g16, g4, 0");
  b.line("ldl g18, g5");
  b.line("ldli g26, g6, 0");
  b.packet({"ldl g28, g7", "fmul g20, g9, g19", "fmul g21, g9, g18"});
  b.packet({"addi g15, g15, -1", "nop", "nop", "fmul g30, g9, g29"});
  b.packet({"nop", "fmul g31, g9, g28"});
  b.packet({"nop", "fmsub g20, g8, g18", "fmadd g21, g8, g19"});
  b.packet({"nop", "nop", "nop", "fmsub g30, g8, g28"});
  b.packet({"nop", "fmadd g31, g8, g29"});
  b.packet({"nop", "fadd g23, g17, g20", "fadd g22, g16, g21"});
  b.packet({"nop", "fsub g25, g17, g20", "fsub g24, g16, g21",
            "fadd g33, g27, g30"});
  b.packet({"nop", "fadd g32, g26, g31", "nop", "fsub g35, g27, g30"});
  b.packet({"nop", "fsub g34, g26, g31"});
  b.line("stl g22, g4");
  b.line("stl g24, g5");
  b.line("stl g32, g6");
  b.packet({"stl g34, g7", "add g4, g4, g50", "add g5, g5, g50",
            "add g6, g6, g50"});
  b.line("add g7, g7, g50");
}

std::string generate_fft2_asm(const std::vector<float>& x_rev) {
  AsmBuilder b;
  b.line(".data");
  b.line("ticks: .space 8");
  b.line("  .align 8");
  b.label("xarr");
  b.line(float_data(x_rev));
  b.line("  .align 8");
  b.label("twarr");
  b.line(float_data(flatten(twiddles(kFftN / 2))));
  b.line(".code");
  b.line(load_addr(12, "xarr"));
  b.line(load_addr(40, "twarr"));
  b.line("setlo g42, 8");       // halfB
  b.line("setlo g49, 16");      // mB
  b.line("setlo g50, 32");      // 2*mB
  b.line("setlo g43, 4096");    // twiddle byte step
  b.line("setlo g44, 9");       // stages 0..8 (group pairs >= 1)
  b.line("setlo g48, 256");     // group pairs
  b.line("setlo g52, 1");       // j iterations
  b.line(tick_start());

  b.label("stage");
  b.line("setlo g14, 0");       // jB
  b.line("mov g13, g40");       // tw ptr
  b.line("mov g53, g52");       // j counter
  b.label("jloop");
  b.line("ldli g8, g13, 0");    // twiddle
  b.packet({"nop", "add g4, g12, g14", "nop", "nop"});
  b.packet({"nop", "add g5, g4, g42", "add g6, g4, g49"});
  b.packet({"mov g15, g48", "add g7, g6, g42"});
  b.label("gloop");
  emit_r2_pair_body(b);
  b.line("bnz g15, gloop");
  b.line("addi g14, g14, 8");
  b.line("add g13, g13, g43");
  b.line("addi g53, g53, -1");
  b.line("bnz g53, jloop");
  // Stage bookkeeping: halfB/mB/2mB double, tw step and group pairs halve,
  // j count doubles.
  b.packet({"addi g44, g44, -1", "slli g42, g42, 1", "slli g49, g49, 1",
            "slli g50, g50, 1"});
  b.packet({"nop", "srli g43, g43, 1", "srli g48, g48, 1",
            "slli g52, g52, 1"});
  b.line("bnz g44, stage");

  // Final stage (s = 9): one group, 512 butterflies, unrolled x2 over j.
  b.line("mov g4, g12");
  b.line("sethi g5, 0");
  b.line("orlo g5, 4096");
  b.line("add g5, g4, g5");     // b ptr = xbase + 4096
  b.line("mov g13, g40");
  b.line("setlo g15, 256");
  b.label("floop");
  b.line("ldli g8, g13, 0");    // twiddle A
  b.line("ldli g36, g13, 8");   // twiddle B
  b.line("ldli g16, g4, 0");
  b.line("ldl g18, g5");
  b.line("ldli g26, g4, 8");
  b.packet({"ldli g28, g5, 8", "fmul g20, g9, g19", "fmul g21, g9, g18"});
  b.packet({"addi g15, g15, -1", "nop", "nop", "fmul g30, g37, g29"});
  b.packet({"nop", "fmul g31, g37, g28"});
  b.packet({"nop", "fmsub g20, g8, g18", "fmadd g21, g8, g19"});
  b.packet({"nop", "nop", "nop", "fmsub g30, g36, g28"});
  b.packet({"nop", "fmadd g31, g36, g29"});
  b.packet({"nop", "fadd g23, g17, g20", "fadd g22, g16, g21"});
  b.packet({"nop", "fsub g25, g17, g20", "fsub g24, g16, g21",
            "fadd g33, g27, g30"});
  b.packet({"nop", "fadd g32, g26, g31", "nop", "fsub g35, g27, g30"});
  b.packet({"nop", "fsub g34, g26, g31"});
  b.line("stl g22, g4");
  b.line("stl g24, g5");
  b.line("stli g32, g4, 8");
  b.packet({"stli g34, g5, 8", "addi g4, g4, 16", "addi g5, g5, 16",
            "addi g13, g13, 16"});
  b.line("bnz g15, floop");
  b.line(tick_stop());
  b.line("halt");
  return b.str();
}

// ---- radix-4 ----
//
// Register map: g4..g7 = A/B/C/D pointers, g12 = xbase, g13 = tw base,
// g14 = jB, g15 = group counter, g16..g23 = loaded A..D pairs
// (A = g16(ai):g17(ar), B = g18:g19, C = g20:g21, D = g22:g23),
// g24..g29 = twiddles w1 (g24:g25 = i:r), w2 (g26:g27), w3 (g28:g29),
// g30..g35 = twiddled B,C,D (Br g30, Bi g31, Cr g32, Ci g33, Dr g34,
// Di g35), g54..g61 = t0..t3 (r/i), g62..g69 = results y0..y3 pairs
// (even = im), g42 = qB, g49 = 4qB (group stride), g43 = tw step bytes,
// g44 = stage counter, g48 = groups, g52 = j count, g53 = j counter,
// g46/g47 = tw ptrs for W^2j / W^3j.

void emit_r4_body(AsmBuilder& b) {
  // Loads: A..D and three twiddles (twiddles are hoisted by the caller).
  b.line("ldli g16, g4, 0");
  b.line("ldl g18, g5");
  b.line("ldl g20, g6");
  b.line("ldl g22, g7");
  // Twiddled inputs: B' = B*w1 (FU1 r / FU2 i), C' = C*w2 (FU3 r / FU1 i),
  // D' = D*w3 (FU2 r / FU3 i).
  b.packet({"addi g15, g15, -1", "fmul g30, g25, g19", "fmul g31, g25, g18",
            "nop"});
  b.packet({"nop", "fmul g33, g27, g20", "fmul g34, g29, g23",
            "fmul g32, g27, g21"});
  b.packet({"nop", "nop", "nop", "fmul g35, g29, g22"});
  b.packet({"nop", "fmsub g30, g24, g18", "fmadd g31, g24, g19"});
  b.packet({"nop", "fmadd g33, g26, g21", "fmsub g34, g28, g22",
            "fmsub g32, g26, g20"});
  b.packet({"nop", "nop", "nop", "fmadd g35, g28, g23"});
  // t0 = A + C', t1 = A - C', t2 = B' + D', t3 = B' - D'.
  b.packet({"nop", "fadd g54, g17, g32", "fadd g55, g16, g33"});
  b.packet({"nop", "fsub g56, g17, g32", "fsub g57, g16, g33",
            "fadd g58, g30, g34"});
  b.packet({"nop", "fadd g59, g31, g35", "fsub g60, g30, g34",
            "fsub g61, g31, g35"});
  // y0 = t0 + t2; y2 = t0 - t2; y1 = t1 - i*t3; y3 = t1 + i*t3.
  b.packet({"nop", "fadd g63, g54, g58", "fadd g62, g55, g59"});
  b.packet({"nop", "fsub g67, g54, g58", "fsub g66, g55, g59",
            "fadd g65, g56, g61"});
  b.packet({"nop", "fsub g64, g57, g60", "fsub g69, g56, g61",
            "fadd g68, g57, g60"});
  b.line("stl g62, g4");
  b.line("stl g64, g5");
  b.line("stl g66, g6");
  b.packet({"stl g68, g7", "add g4, g4, g49", "add g5, g5, g49",
            "add g6, g6, g49"});
  b.line("add g7, g7, g49");
}

std::string generate_fft4_asm(const std::vector<float>& x_rev) {
  AsmBuilder b;
  b.line(".data");
  b.line("ticks: .space 8");
  b.line("  .align 8");
  b.label("xarr");
  b.line(float_data(x_rev));
  b.line("  .align 8");
  b.label("twarr");
  b.line(float_data(flatten(twiddles(kFftN))));
  b.line(".code");
  b.line(load_addr(12, "xarr"));
  b.line(load_addr(40, "twarr"));
  b.line("setlo g42, 8");      // qB
  b.line("setlo g49, 32");     // 4qB
  b.line("sethi g43, 0");
  b.line("orlo g43, 2048");    // tw byte step for W^j: (N/4q)*8 = 2048 at q=1
  b.line("setlo g44, 5");      // stages
  b.line("setlo g48, 256");    // groups
  b.line("setlo g52, 1");      // j iterations
  b.line(tick_start());

  b.label("stage");
  b.line("setlo g14, 0");
  b.line("mov g13, g40");      // W^j ptr
  b.line("mov g46, g40");      // W^2j ptr
  b.line("mov g47, g40");      // W^3j ptr
  b.line("mov g53, g52");
  b.label("jloop");
  b.line("ldli g24, g13, 0");  // w1
  b.line("ldli g26, g46, 0");  // w2
  b.line("ldli g28, g47, 0");  // w3
  b.packet({"nop", "add g4, g12, g14"});
  b.packet({"nop", "add g5, g4, g42", "nop", "nop"});
  b.packet({"nop", "add g6, g5, g42", "nop", "nop"});
  b.packet({"mov g15, g48", "add g7, g6, g42"});
  b.label("gloop");
  emit_r4_body(b);
  b.line("bnz g15, gloop");
  b.packet({"addi g14, g14, 8", "add g13, g13, g43"});
  b.packet({"nop", "add g46, g46, g43", "add g47, g47, g43"});
  b.packet({"nop", "add g46, g46, g43", "add g47, g47, g43"});
  b.packet({"nop", "nop", "add g47, g47, g43"});
  b.line("addi g53, g53, -1");
  b.line("bnz g53, jloop");
  // Stage bookkeeping: qB *= 4, 4qB *= 4, tw step /= 4, groups /= 4,
  // j count *= 4.
  b.packet({"addi g44, g44, -1", "slli g42, g42, 2", "slli g49, g49, 2",
            "srli g43, g43, 2"});
  b.packet({"nop", "srli g48, g48, 2", "slli g52, g52, 2"});
  b.line("bnz g44, stage");
  b.line(tick_stop());
  b.line("halt");
  return b.str();
}

} // namespace

u32 bit_reverse10(u32 i) {
  u32 r = 0;
  for (u32 b = 0; b < 10; ++b) r |= ((i >> b) & 1u) << (9 - b);
  return r;
}

u32 digit4_reverse5(u32 i) {
  u32 r = 0;
  for (u32 d = 0; d < 5; ++d) r |= ((i >> (2 * d)) & 3u) << (2 * (4 - d));
  return r;
}

std::vector<std::complex<double>> reference_dft(
    const std::vector<std::complex<float>>& x) {
  // Iterative radix-2 decimation-in-time in double precision. Its index
  // reversal and twiddle table are its own, not the guest's bit_reverse10 /
  // digit4_reverse5 / FP32 twiddles(), so a bug in the guest's input
  // permutation or twiddles cannot also hide in the reference. The
  // butterflies use real arithmetic: a std::complex<double> multiply is a
  // libcall (__muldc3) without -ffast-math.
  const std::size_t n = x.size();
  if (n & (n - 1)) {
    throw std::invalid_argument("reference_dft: length " + std::to_string(n) +
                                " is not a power of two");
  }
  u32 bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  std::vector<std::complex<double>> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (u32 b = 0; b < bits; ++b) r |= ((i >> b) & 1u) << (bits - 1 - b);
    out[r] = {x[i].real(), x[i].imag()};
  }
  std::vector<double> wr(n / 2), wi(n / 2);  // W^k = exp(-2*pi*i*k / n)
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double a = -2.0 * std::numbers::pi * static_cast<double>(k) /
                     static_cast<double>(n);
    wr[k] = std::cos(a);
    wi[k] = std::sin(a);
  }
  for (std::size_t half = 1; half < n; half *= 2) {
    const std::size_t step = n / (2 * half);  // twiddle stride this stage
    for (std::size_t base = 0; base < n; base += 2 * half) {
      for (std::size_t j = 0; j < half; ++j) {
        const double c = wr[j * step], s = wi[j * step];
        const std::complex<double> u = out[base + j];
        const std::complex<double> v = out[base + j + half];
        const double tr = v.real() * c - v.imag() * s;
        const double ti = v.real() * s + v.imag() * c;
        out[base + j] = {u.real() + tr, u.imag() + ti};
        out[base + j + half] = {u.real() - tr, u.imag() - ti};
      }
    }
  }
  return out;
}

KernelSpec make_fft_radix2_spec(u64 seed) {
  const auto x = random_complex(kFftN, seed ^ 0xFF7);
  std::vector<std::complex<float>> rev(kFftN);
  for (u32 i = 0; i < kFftN; ++i) rev[bit_reverse10(i)] = x[i];

  KernelSpec spec;
  spec.name = "fft1024_radix2";
  spec.source = generate_fft2_asm(flatten(rev));
  spec.validate = [golden = make_fft_golden(x)](sim::MemoryBus& mem,
                                                const masm::Image& img,
                                                std::string& msg) {
    return validate_fft(mem, img, golden, msg);
  };
  return spec;
}

KernelSpec make_fft_radix4_spec(u64 seed) {
  const auto x = random_complex(kFftN, seed ^ 0xFF7);  // same data as radix-2
  std::vector<std::complex<float>> rev(kFftN);
  for (u32 i = 0; i < kFftN; ++i) rev[digit4_reverse5(i)] = x[i];

  KernelSpec spec;
  spec.name = "fft1024_radix4";
  spec.source = generate_fft4_asm(flatten(rev));
  spec.validate = [golden = make_fft_golden(x)](sim::MemoryBus& mem,
                                                const masm::Image& img,
                                                std::string& msg) {
    return validate_fft(mem, img, golden, msg);
  };
  return spec;
}

} // namespace majc::kernels
