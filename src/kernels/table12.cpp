#include "src/kernels/table12.h"

#include "src/kernels/biquad.h"
#include "src/kernels/bitrev.h"
#include "src/kernels/cfir.h"
#include "src/kernels/color_convert.h"
#include "src/kernels/convolve.h"
#include "src/kernels/dct_quant.h"
#include "src/kernels/fft.h"
#include "src/kernels/fir.h"
#include "src/kernels/idct.h"
#include "src/kernels/lms.h"
#include "src/kernels/max_search.h"
#include "src/kernels/mb_decode.h"
#include "src/kernels/motion_est.h"
#include "src/kernels/vld.h"

namespace majc::kernels {
namespace {

// Eager const init during (single-threaded) static initialization: like the
// opcode name map, this keeps the lazy-magic-static pattern out of the
// farm's thread-safety audit surface — workers and the serving daemon read
// the registry concurrently.
const std::vector<NamedKernel> kTable = {
    {"biquad", make_biquad_spec},
    {"fir", make_fir_spec},
    {"iir", make_iir_spec},
    {"cfir", make_cfir_spec},
    {"lms", make_lms_spec},
    {"max_search", make_max_search_spec},
    {"bitrev", make_bitrev_spec},
    {"fft_radix2", make_fft_radix2_spec},
    {"fft_radix4", make_fft_radix4_spec},
    {"idct", make_idct_spec},
    {"dct_quant", make_dct_quant_spec},
    {"vld", make_vld_spec},
    {"motion_est", make_motion_est_spec},
    {"mb_decode", make_mb_decode_spec},
    {"convolve", make_convolve_spec},
    {"color_convert", make_color_convert_spec},
};

} // namespace

const std::vector<NamedKernel>& table12_kernels() { return kTable; }

KernelSpec table12_spec(const NamedKernel& nk, u64 seed) {
  KernelSpec spec = nk.make(seed);
  spec.name = nk.name;
  return spec;
}

const NamedKernel* find_table12_kernel(std::string_view name) {
  for (const NamedKernel& nk : table12_kernels()) {
    if (name == nk.name) return &nk;
  }
  return nullptr;
}

} // namespace majc::kernels
