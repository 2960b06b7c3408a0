//===- support/Json.h - Minimal JSON string escaping ------------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JSON primitives the toolchain's report producers and the plutod
/// wire protocol share: correct string escaping (used by the observe trace
/// serializer, the PassStats report and the plutopp CLI), a small
/// recursive-descent parser into JsonValue (used to decode plutod
/// CompileRequest lines), and a whitespace minifier that turns the pretty
/// multi-line report documents into single-line values suitable for a
/// newline-delimited protocol.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_SUPPORT_JSON_H
#define PLUTOPP_SUPPORT_JSON_H

#include "support/Result.h"

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace pluto {

namespace detail {
/// The length of the well-formed UTF-8 sequence (RFC 3629: no overlong
/// form, no surrogate, nothing above U+10FFFF) that starts at S[I], or 0
/// when the byte there starts none.
inline size_t utf8SequenceLength(const std::string &S, size_t I) {
  auto Byte = [&](size_t K) -> unsigned {
    return I + K < S.size() ? static_cast<unsigned char>(S[I + K]) : 0;
  };
  unsigned Lead = Byte(0);
  size_t Len = 0;
  unsigned Lo = 0x80, Hi = 0xBF; // Bounds of the second byte.
  if (Lead >= 0xC2 && Lead <= 0xDF) {
    Len = 2;
  } else if (Lead >= 0xE0 && Lead <= 0xEF) {
    Len = 3;
    Lo = Lead == 0xE0 ? 0xA0 : Lo;
    Hi = Lead == 0xED ? 0x9F : Hi;
  } else if (Lead >= 0xF0 && Lead <= 0xF4) {
    Len = 4;
    Lo = Lead == 0xF0 ? 0x90 : Lo;
    Hi = Lead == 0xF4 ? 0x8F : Hi;
  } else {
    return 0;
  }
  for (size_t K = 1; K < Len; ++K) {
    if (Byte(K) < Lo || Byte(K) > Hi)
      return 0;
    Lo = 0x80;
    Hi = 0xBF;
  }
  return Len;
}
} // namespace detail

/// Appends the JSON escape of S (no surrounding quotes) to Out. The result
/// is valid UTF-8: well-formed sequences pass through byte for byte, and
/// every byte that starts none becomes U+FFFD.
inline void appendJsonEscaped(std::string &Out, const std::string &S) {
  for (size_t I = 0; I < S.size(); ++I) {
    char C = S[I];
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<signed char>(C) >= 0x20) { // Printable ASCII.
        Out += C;
      } else if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else if (size_t Len = detail::utf8SequenceLength(S, I)) {
        Out.append(S, I, Len);
        I += Len - 1;
      } else {
        Out += "\xEF\xBF\xBD"; // U+FFFD REPLACEMENT CHARACTER
      }
    }
  }
}

/// S as a quoted JSON string literal.
inline std::string jsonQuote(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  Out += '"';
  appendJsonEscaped(Out, S);
  Out += '"';
  return Out;
}

/// Removes every byte of whitespace outside string literals. Turns the
/// pretty-printed report documents (PassStats::toJson) into one-line
/// values that can be embedded in a newline-delimited protocol.
inline std::string minifyJson(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  bool InStr = false, Esc = false;
  for (char C : S) {
    if (InStr) {
      Out += C;
      if (Esc)
        Esc = false;
      else if (C == '\\')
        Esc = true;
      else if (C == '"')
        InStr = false;
      continue;
    }
    if (C == '"') {
      InStr = true;
      Out += C;
      continue;
    }
    if (C == ' ' || C == '\t' || C == '\n' || C == '\r')
      continue;
    Out += C;
  }
  return Out;
}

namespace detail {
struct JsonParser;
} // namespace detail

/// One parsed JSON document node. Strict parse (RFC 8259 value grammar,
/// \uXXXX escapes decoded to UTF-8 including surrogate pairs) with a
/// recursion-depth cap so hostile daemon input cannot overflow the stack.
/// Object member order is preserved; duplicate keys keep the first
/// occurrence in find().
class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default; ///< null

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return B; }
  double asNumber() const { return Num; }
  /// True for numbers written without fraction/exponent that fit int64.
  bool isInteger() const { return K == Kind::Number && IsInt; }
  long long asInt() const {
    return IsInt ? Int : static_cast<long long>(Num);
  }
  const std::string &asString() const { return Str; }
  const std::vector<JsonValue> &array() const { return Arr; }
  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    return Obj;
  }

  /// Object member lookup; null for non-objects or missing keys.
  const JsonValue *find(const std::string &Key) const;

  /// Compact (minified) serialization of this value.
  std::string toJson() const;

  /// Parses exactly one JSON document (trailing garbage is an error).
  static Result<JsonValue> parse(const std::string &Text);

private:
  friend struct detail::JsonParser;

  Kind K = Kind::Null;
  bool B = false;
  bool IsInt = false;
  long long Int = 0;
  double Num = 0.0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::vector<std::pair<std::string, JsonValue>> Obj;
};

} // namespace pluto

#endif // PLUTOPP_SUPPORT_JSON_H
