// Minimal JSON parser for the serving protocol (the read-side counterpart
// of trace::JsonWriter).
//
// Requests arrive from untrusted clients, so the parser is written for
// hostile input first: strict UTF-8-agnostic byte handling, a hard nesting
// depth cap (adversarial "[[[[..." frames must fail cleanly, not overflow
// the stack), no recursion past that cap, and every failure is a structured
// error message — never an exception, crash or partial value.
//
// Numbers keep both representations: a double for general use and an exact
// 64-bit integer when the literal was integral and in range (seeds are full
// u64 values; a double-only parse would silently round them above 2^53).
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/support/types.h"

namespace majc::serve {

class JValue {
public:
  enum class Kind : u8 { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// Exact integer value when the literal was integral; valid only if
  /// `is_int` (unsigned) or `is_neg_int` (negative, two's complement in u64).
  u64 integer = 0;
  bool is_int = false;
  bool is_neg_int = false;
  std::string str;
  std::vector<JValue> arr;
  /// Insertion-ordered key/value pairs (duplicate keys keep the first).
  std::vector<std::pair<std::string, JValue>> obj;

  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  const JValue* find(std::string_view key) const;

  // Typed getters with defaults (never throw; wrong kind returns `dflt`).
  bool get_bool(bool dflt) const { return is_bool() ? boolean : dflt; }
  double get_double(double dflt) const { return is_number() ? number : dflt; }
  std::string get_string(const std::string& dflt) const {
    return is_string() ? str : dflt;
  }
  /// Unsigned integer: exact when the literal was integral; negative or
  /// non-numeric values return `dflt`.
  u64 get_u64(u64 dflt) const {
    if (!is_number() || is_neg_int) return dflt;
    if (is_int) return integer;
    return number >= 0 ? static_cast<u64>(number) : dflt;
  }

  // Member convenience: obj[key] with a default.
  bool member_bool(std::string_view key, bool dflt) const;
  double member_double(std::string_view key, double dflt) const;
  u64 member_u64(std::string_view key, u64 dflt) const;
  std::string member_string(std::string_view key,
                            const std::string& dflt) const;
};

/// Parse `text` (one complete JSON value, optionally whitespace-padded)
/// into `out`. On failure returns false and fills `err` with a
/// position-tagged message; `out` is unspecified.
bool json_parse(std::string_view text, JValue* out, std::string* err);

} // namespace majc::serve
