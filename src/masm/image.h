// Loadable program image produced by the assembler.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "src/support/types.h"

namespace majc::masm {

/// A MAJC program: a code section (instruction words; packets laid out
/// back-to-back) and an initialized data section, each with a load base.
/// Symbols map label names to absolute byte addresses.
struct Image {
  static constexpr Addr kDefaultCodeBase = 0x0000'1000;
  static constexpr Addr kDefaultDataBase = 0x0010'0000;

  std::vector<u32> code;
  std::vector<u8> data;
  Addr code_base = kDefaultCodeBase;
  Addr data_base = kDefaultDataBase;
  Addr entry = kDefaultCodeBase;
  std::unordered_map<std::string, Addr> symbols;

  /// Address of a defined symbol; throws majc::Error if unknown.
  Addr symbol(const std::string& name) const;
};

} // namespace majc::masm
