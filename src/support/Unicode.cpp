//===- support/Unicode.cpp - Code point utilities ---------------------------===//

#include "support/Unicode.h"

#include <cassert>
#include <cstdio>

using namespace sbd;

void sbd::appendUtf8(uint32_t Cp, std::string &Out) {
  assert(Cp <= MaxCodePoint && "code point out of range");
  if (Cp < 0x80) {
    Out.push_back(static_cast<char>(Cp));
    return;
  }
  if (Cp < 0x800) {
    Out.push_back(static_cast<char>(0xC0 | (Cp >> 6)));
    Out.push_back(static_cast<char>(0x80 | (Cp & 0x3F)));
    return;
  }
  if (Cp < 0x10000) {
    Out.push_back(static_cast<char>(0xE0 | (Cp >> 12)));
    Out.push_back(static_cast<char>(0x80 | ((Cp >> 6) & 0x3F)));
    Out.push_back(static_cast<char>(0x80 | (Cp & 0x3F)));
    return;
  }
  Out.push_back(static_cast<char>(0xF0 | (Cp >> 18)));
  Out.push_back(static_cast<char>(0x80 | ((Cp >> 12) & 0x3F)));
  Out.push_back(static_cast<char>(0x80 | ((Cp >> 6) & 0x3F)));
  Out.push_back(static_cast<char>(0x80 | (Cp & 0x3F)));
}

std::string sbd::toUtf8(const std::vector<uint32_t> &Word) {
  std::string Out;
  Out.reserve(Word.size());
  for (uint32_t Cp : Word)
    appendUtf8(Cp, Out);
  return Out;
}

std::vector<uint32_t> sbd::fromUtf8(const std::string &Bytes) {
  std::vector<uint32_t> Out;
  size_t I = 0;
  while (I < Bytes.size())
    Out.push_back(decodeUtf8At(Bytes, I));
  return Out;
}

std::string sbd::escapeCodePoint(uint32_t Cp) {
  if (Cp >= 0x20 && Cp < 0x7F) {
    char C = static_cast<char>(Cp);
    if (C == '\\')
      return "\\\\";
    return std::string(1, C);
  }
  char Buf[16];
  if (Cp <= 0xFFFF)
    std::snprintf(Buf, sizeof(Buf), "\\u%04X", Cp);
  else
    std::snprintf(Buf, sizeof(Buf), "\\U{%06X}", Cp);
  return std::string(Buf);
}

std::string sbd::escapeWord(const std::vector<uint32_t> &Word) {
  std::string Out;
  for (uint32_t Cp : Word)
    Out += escapeCodePoint(Cp);
  return Out;
}

void sbd::appendJsonString(std::string &Out, std::string_view S) {
  Out += '"';
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (C == '\n' || C == '\t' || C == '\r') {
      Out += C == '\n' ? "\\n" : C == '\t' ? "\\t" : "\\r";
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", static_cast<unsigned>(C));
      Out += Buf;
    } else {
      Out += C;
    }
  }
  Out += '"';
}
