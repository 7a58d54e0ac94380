//===- support/Unicode.h - Code point utilities -----------------------------===//
///
/// \file
/// Utilities for working with Unicode code points: UTF-8 encoding of witness
/// strings and printable escaping for diagnostics. The alphabet theory works
/// over raw code points (0..0x10FFFF); these helpers only matter at the
/// input/output boundary.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_SUPPORT_UNICODE_H
#define SBD_SUPPORT_UNICODE_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sbd {

/// Maximum valid Unicode code point.
inline constexpr uint32_t MaxCodePoint = 0x10FFFF;

/// Appends the UTF-8 encoding of \p Cp to \p Out. \p Cp must be a valid code
/// point (<= MaxCodePoint); surrogates are encoded permissively (WTF-8 style)
/// since the solver's domain is raw code points.
void appendUtf8(uint32_t Cp, std::string &Out);

/// Encodes a whole code-point sequence as UTF-8.
std::string toUtf8(const std::vector<uint32_t> &Word);

/// Decodes UTF-8 into code points. Invalid bytes decode as U+FFFD and
/// consume one byte (lossy but total; used only by the front ends).
std::vector<uint32_t> fromUtf8(const std::string &Bytes);

/// Decodes one code point of \p Bytes starting at offset \p I and advances
/// \p I past the consumed bytes (same lossy-but-total semantics as
/// fromUtf8, which is implemented on top of this). Callers that stream a
/// string character-by-character avoid materializing the code-point vector.
/// Precondition: I < Bytes.size().
inline uint32_t decodeUtf8At(const std::string &Bytes, size_t &I) {
  size_t N = Bytes.size();
  auto cont = [&](size_t K) {
    return I + K < N && (static_cast<uint8_t>(Bytes[I + K]) & 0xC0) == 0x80;
  };
  uint8_t B0 = static_cast<uint8_t>(Bytes[I]);
  if (B0 < 0x80) {
    ++I;
    return B0;
  }
  if ((B0 & 0xE0) == 0xC0 && cont(1)) {
    uint32_t Cp = (static_cast<uint32_t>(B0 & 0x1F) << 6) |
                  (static_cast<uint8_t>(Bytes[I + 1]) & 0x3F);
    I += 2;
    return Cp;
  }
  if ((B0 & 0xF0) == 0xE0 && cont(1) && cont(2)) {
    uint32_t Cp = (static_cast<uint32_t>(B0 & 0x0F) << 12) |
                  ((static_cast<uint32_t>(Bytes[I + 1]) & 0x3F) << 6) |
                  (static_cast<uint8_t>(Bytes[I + 2]) & 0x3F);
    I += 3;
    return Cp;
  }
  if ((B0 & 0xF8) == 0xF0 && cont(1) && cont(2) && cont(3)) {
    uint32_t Cp = (static_cast<uint32_t>(B0 & 0x07) << 18) |
                  ((static_cast<uint32_t>(Bytes[I + 1]) & 0x3F) << 12) |
                  ((static_cast<uint32_t>(Bytes[I + 2]) & 0x3F) << 6) |
                  (static_cast<uint8_t>(Bytes[I + 3]) & 0x3F);
    I += 4;
    return Cp <= MaxCodePoint ? Cp : 0xFFFD;
  }
  ++I;
  return 0xFFFD;
}

/// Renders a code point for human consumption: printable ASCII as-is,
/// everything else as \\uXXXX / \\U{XXXXXX}.
std::string escapeCodePoint(uint32_t Cp);

/// Renders a code-point word for human consumption (each char escaped).
std::string escapeWord(const std::vector<uint32_t> &Word);

/// Appends \p S as a JSON string literal, quotes included: `"` and `\`
/// get a backslash, newline, tab and carriage return their short escapes,
/// other bytes below 0x20 become \u00XX, and every other byte (UTF-8
/// included) passes through. The one JSON string writer of the project.
void appendJsonString(std::string &Out, std::string_view S);

} // namespace sbd

#endif // SBD_SUPPORT_UNICODE_H
