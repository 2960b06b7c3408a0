//===- serve/Protocol.cpp - plutod NDJSON wire protocol -------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include <algorithm>
#include <cstdio>

using namespace pluto;
using namespace pluto::serve;

namespace {

void appendKey(std::string &Out, const char *Key) {
  Out += '"';
  Out += Key;
  Out += "\":";
}

void appendBool(std::string &Out, const char *Key, bool V) {
  appendKey(Out, Key);
  Out += V ? "true" : "false";
}

void appendInt(std::string &Out, const char *Key, long long V) {
  appendKey(Out, Key);
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%lld", V);
  Out += Buf;
}

void appendStr(std::string &Out, const char *Key, const std::string &V) {
  appendKey(Out, Key);
  Out += jsonQuote(V);
}

/// `{"plutod":1,"id":<Id>` - the shared response/request prefix.
std::string head(const std::string &IdJson) {
  std::string Out = "{\"plutod\":";
  char Buf[8];
  std::snprintf(Buf, sizeof(Buf), "%d", ProtocolVersion);
  Out += Buf;
  Out += ",\"id\":";
  Out += IdJson.empty() ? std::string("null") : IdJson;
  return Out;
}

/// Stores the JSON value V into table row F; Where names the member in
/// the error.
Result<bool> readField(const OptionField &F, const JsonValue &V,
                       const std::string &Where, PlutoOptions &O,
                       BudgetLimits &B) {
  if (F.K == OptionField::Kind::Bool) {
    if (!V.isBool())
      return Err(Where + " must be a boolean");
    F.set(O, B, V.asBool());
    return true;
  }
  if (!V.isInteger() || !F.set(O, B, V.asInt()))
    return Err(Where + " must be an integer in [" +
               std::to_string(F.lowest()) + ", " +
               std::to_string(F.highest()) + "]");
  return true;
}

void appendField(std::string &Out, const OptionField &F,
                 const PlutoOptions &O, const BudgetLimits &B) {
  if (F.K == OptionField::Kind::Bool)
    appendBool(Out, F.Name, F.get(O, B));
  else
    appendInt(Out, F.Name, F.get(O, B));
}

} // namespace

std::string pluto::serve::optionsToJson(const PlutoOptions &O) {
  std::string Out = "{";
  for (const OptionField &F : optionTable()) {
    if (F.isBudget())
      continue;
    if (Out.size() > 1)
      Out += ',';
    appendField(Out, F, O, BudgetLimits());
  }
  Out += '}';
  return Out;
}

Result<PlutoOptions> pluto::serve::optionsFromJson(const JsonValue &V) {
  if (!V.isObject())
    return Err("\"options\" must be a JSON object");
  PlutoOptions O;
  BudgetLimits Unused;
  auto Table = optionTable();
  for (const auto &[Key, Val] : V.members()) {
    auto Row = std::find_if(Table.begin(), Table.end(), [&](const auto &F) {
      return !F.isBudget() && Key == F.Name;
    });
    if (Row == Table.end())
      return Err("unknown options key \"" + Key + "\"");
    if (auto R = readField(*Row, Val, "options." + Key, O, Unused); !R)
      return Err(R.error());
  }
  return O;
}

std::string pluto::serve::encodeRequest(const WireRequest &R) {
  std::string Out = head(R.Id);
  Out += ',';
  switch (R.Operation) {
  case Op::Ping:
    appendStr(Out, "op", "ping");
    break;
  case Op::Metrics:
    appendStr(Out, "op", "metrics");
    break;
  case Op::Tune:
  case Op::Compile:
    appendStr(Out, "op", R.Operation == Op::Tune ? "tune" : "compile");
    if (R.Operation == Op::Tune && !R.Spec.empty()) {
      Out += ',';
      appendStr(Out, "spec", R.Spec);
    }
    if (!R.Req.Name.empty()) {
      Out += ',';
      appendStr(Out, "name", R.Req.Name);
    }
    Out += ',';
    appendStr(Out, "source", R.Req.Source);
    Out += ",\"options\":";
    Out += optionsToJson(R.Req.Opts);
    // Budget members ride at the top level (not in "options"), and only
    // when set: they never change the emitted code, so they must stay out
    // of the options fingerprint. Old servers ignore unknown top-level
    // members.
    for (const OptionField &F : optionTable()) {
      if (F.isBudget() && R.Req.Budget.*F.Limit) {
        Out += ',';
        appendField(Out, F, R.Req.Opts, R.Req.Budget);
      }
    }
    break;
  }
  Out += '}';
  return Out;
}

Result<WireRequest> pluto::serve::decodeRequest(const std::string &Line) {
  auto Doc = JsonValue::parse(Line);
  if (!Doc)
    return Err("malformed JSON: " + Doc.error());
  if (!Doc->isObject())
    return Err("request must be a JSON object");

  const JsonValue *Ver = Doc->find("plutod");
  if (!Ver)
    return Err("missing \"plutod\" protocol version member");
  if (!Ver->isInteger() || Ver->asInt() != ProtocolVersion)
    return Err("unsupported protocol version (this server speaks "
               "\"plutod\": 1)");

  WireRequest R;
  if (const JsonValue *Id = Doc->find("id"))
    R.Id = Id->toJson();

  const JsonValue *OpV = Doc->find("op");
  if (!OpV || !OpV->isString())
    return Err("missing or non-string \"op\" member");
  const std::string &OpName = OpV->asString();
  if (OpName == "ping")
    R.Operation = Op::Ping;
  else if (OpName == "metrics")
    R.Operation = Op::Metrics;
  else if (OpName == "compile")
    R.Operation = Op::Compile;
  else if (OpName == "tune")
    R.Operation = Op::Tune;
  else
    return Err("unknown op \"" + OpName +
               "\" (expected compile, tune, ping or metrics)");

  if (R.Operation != Op::Compile && R.Operation != Op::Tune)
    return R;

  if (const JsonValue *Name = Doc->find("name")) {
    if (!Name->isString())
      return Err("\"name\" must be a string");
    R.Req.Name = Name->asString();
  }
  const JsonValue *Src = Doc->find("source");
  if (!Src || !Src->isString())
    return Err(std::string(R.Operation == Op::Tune ? "tune" : "compile") +
               " request needs a string \"source\" member");
  R.Req.Source = Src->asString();

  if (R.Operation == Op::Tune) {
    if (const JsonValue *Spec = Doc->find("spec")) {
      if (!Spec->isString())
        return Err("\"spec\" must be a string");
      R.Spec = Spec->asString();
    }
  }

  if (const JsonValue *Opts = Doc->find("options")) {
    auto O = optionsFromJson(*Opts);
    if (!O)
      return Err(O.error());
    R.Req.Opts = *O;
  }

  // Optional per-request resource budget (0 / absent = unlimited).
  for (const OptionField &F : optionTable()) {
    const JsonValue *V = F.isBudget() ? Doc->find(F.Name) : nullptr;
    if (!V)
      continue;
    auto B = readField(F, *V, std::string("\"") + F.Name + "\"",
                       R.Req.Opts, R.Req.Budget);
    if (!B)
      return Err(B.error());
  }
  return R;
}

std::string pluto::serve::encodeResponse(const std::string &IdJson,
                                         const CompileResponse &Resp) {
  std::string Out = head(IdJson);
  Out += ',';
  appendStr(Out, "status", statusCodeName(Resp.Status));
  if (!Resp.Name.empty()) {
    Out += ',';
    appendStr(Out, "name", Resp.Name);
  }
  if (!Resp.Key.empty()) {
    Out += ',';
    appendStr(Out, "key", Resp.Key);
  }
  if (Resp.ok()) {
    Out += ',';
    appendBool(Out, "cache_hit", Resp.CacheHit);
    Out += ',';
    appendStr(Out, "emitted_c", Resp.EmittedC);
  } else {
    Out += ',';
    appendStr(Out, "error", Resp.Error);
    if (!Resp.Diags.empty()) {
      Out += ",\"diagnostics\":";
      Out += diagnosticsJsonArray(Resp.Name, Resp.Diags);
    }
  }
  Out += '}';
  return Out;
}

std::string pluto::serve::encodeSimpleResponse(const std::string &IdJson,
                                               StatusCode S,
                                               const std::string &Error) {
  std::string Out = head(IdJson);
  Out += ',';
  appendStr(Out, "status", statusCodeName(S));
  if (!Error.empty()) {
    Out += ',';
    appendStr(Out, "error", Error);
  }
  Out += '}';
  return Out;
}

std::string pluto::serve::encodeMetricsResponse(
    const std::string &IdJson, const std::string &MetricsJson) {
  std::string Out = head(IdJson);
  Out += ',';
  appendStr(Out, "status", statusCodeName(StatusCode::Ok));
  Out += ",\"metrics\":";
  Out += MetricsJson;
  Out += '}';
  return Out;
}

std::string pluto::serve::encodeTuneResponse(
    const std::string &IdJson, StatusCode S, const std::string &Name,
    const std::string &WinnerKey, const std::string &WinnerC,
    const std::string &Error, const std::string &TraceJson) {
  std::string Out = head(IdJson);
  Out += ',';
  appendStr(Out, "status", statusCodeName(S));
  if (!Name.empty()) {
    Out += ',';
    appendStr(Out, "name", Name);
  }
  if (S == StatusCode::Ok) {
    if (!WinnerKey.empty()) {
      Out += ',';
      appendStr(Out, "key", WinnerKey);
    }
    Out += ',';
    appendStr(Out, "emitted_c", WinnerC);
  } else if (!Error.empty()) {
    Out += ',';
    appendStr(Out, "error", Error);
  }
  if (!TraceJson.empty()) {
    Out += ",\"trace\":";
    Out += TraceJson;
  }
  Out += '}';
  return Out;
}

Result<WireResponse> pluto::serve::decodeResponse(const std::string &Line) {
  auto Doc = JsonValue::parse(Line);
  if (!Doc)
    return Err("malformed JSON: " + Doc.error());
  if (!Doc->isObject())
    return Err("response must be a JSON object");

  const JsonValue *Ver = Doc->find("plutod");
  if (!Ver || !Ver->isInteger() || Ver->asInt() != ProtocolVersion)
    return Err("missing or unsupported \"plutod\" protocol version");

  WireResponse R;
  if (const JsonValue *Id = Doc->find("id"))
    R.Id = Id->toJson();

  const JsonValue *St = Doc->find("status");
  if (!St || !St->isString())
    return Err("missing or non-string \"status\" member");
  auto Code = statusCodeFromName(St->asString());
  if (!Code)
    return Err("unknown status \"" + St->asString() + "\"");
  R.Status = *Code;

  if (const JsonValue *V = Doc->find("name"); V && V->isString())
    R.Name = V->asString();
  if (const JsonValue *V = Doc->find("key"); V && V->isString())
    R.Key = V->asString();
  if (const JsonValue *V = Doc->find("emitted_c"); V && V->isString())
    R.EmittedC = V->asString();
  if (const JsonValue *V = Doc->find("cache_hit"); V && V->isBool())
    R.CacheHit = V->asBool();
  if (const JsonValue *V = Doc->find("error"); V && V->isString())
    R.Error = V->asString();
  if (const JsonValue *V = Doc->find("metrics"))
    R.MetricsJson = V->toJson();
  if (const JsonValue *V = Doc->find("trace"))
    R.TraceJson = V->toJson();

  if (const JsonValue *Ds = Doc->find("diagnostics"); Ds && Ds->isArray()) {
    for (const JsonValue &DV : Ds->array()) {
      if (!DV.isObject())
        continue;
      Diagnostic D;
      if (const JsonValue *V = DV.find("line"); V && V->isInteger())
        D.Line = static_cast<unsigned>(V->asInt());
      if (const JsonValue *V = DV.find("col"); V && V->isInteger())
        D.Col = static_cast<unsigned>(V->asInt());
      if (const JsonValue *V = DV.find("severity"); V && V->isString())
        D.Sev = V->asString() == "warning" ? Severity::Warning
                                           : Severity::Error;
      if (const JsonValue *V = DV.find("message"); V && V->isString())
        D.Message = V->asString();
      R.Diags.push_back(std::move(D));
    }
  }
  return R;
}
