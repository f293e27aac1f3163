#include "resilience/fault_env.hpp"

#include <memory>
#include <mutex>
#include <sstream>

#include "util/env.hpp"
#include "util/error.hpp"

namespace mpas::resilience {

namespace {

struct KindName {
  FaultKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::MsgDrop, "drop"},
    {FaultKind::MsgCorrupt, "corrupt"},
    {FaultKind::MsgDelay, "delay"},
    {FaultKind::RankStall, "stall"},
    {FaultKind::StateCorrupt, "sdc"},
    {FaultKind::TransferFail, "transfer-fail"},
    {FaultKind::TransferCorrupt, "transfer-corrupt"},
    {FaultKind::StorageTornWrite, "torn-write"},
    {FaultKind::StorageShortWrite, "short-write"},
    {FaultKind::StorageBitRot, "bit-rot"},
    {FaultKind::StorageCrash, "storage-crash"},
};

const char* spec_kind_name(FaultKind kind) {
  for (const auto& k : kKindNames)
    if (k.kind == kind) return k.name;
  MPAS_FAIL("unrenderable fault kind " << static_cast<int>(kind));
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string piece;
  std::istringstream in(text);
  while (std::getline(in, piece, sep)) out.push_back(piece);
  return out;
}

std::vector<std::string> tokens(const std::string& entry) {
  std::vector<std::string> out;
  std::istringstream in(entry);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

std::uint64_t parse_uint(const std::string& text, const std::string& where) {
  MPAS_CHECK_MSG(!text.empty() &&
                     text.find_first_not_of("0123456789") == std::string::npos,
                 "MPAS_FAULT: expected unsigned integer for " << where
                                                              << ", got '"
                                                              << text << "'");
  return std::stoull(text);
}

int parse_int(const std::string& text, const std::string& where) {
  std::size_t used = 0;
  int value = 0;
  try {
    value = std::stoi(text, &used);
  } catch (const std::exception&) {
    used = std::string::npos;
  }
  MPAS_CHECK_MSG(used == text.size(),
                 "MPAS_FAULT: expected integer for " << where << ", got '"
                                                     << text << "'");
  return value;
}

Real parse_real(const std::string& text, const std::string& where) {
  std::size_t used = 0;
  Real value = 0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    used = std::string::npos;
  }
  MPAS_CHECK_MSG(used == text.size(),
                 "MPAS_FAULT: expected number for " << where << ", got '"
                                                    << text << "'");
  return value;
}

FaultSpec parse_fault(const std::vector<std::string>& toks) {
  FaultSpec spec;
  std::string head = toks.front();
  const auto at = head.find('@');
  bool counted = false;
  if (at != std::string::npos) {
    spec.at_event = parse_uint(head.substr(at + 1), "@event");
    head = head.substr(0, at);
    counted = true;
  }
  bool known = false;
  for (const auto& k : kKindNames) {
    if (head == k.name) {
      spec.kind = k.kind;
      known = true;
      break;
    }
  }
  MPAS_CHECK_MSG(known, "MPAS_FAULT: unknown fault kind '" << head << "'");
  for (std::size_t i = 1; i < toks.size(); ++i) {
    const auto eq = toks[i].find('=');
    MPAS_CHECK_MSG(eq != std::string::npos && eq > 0,
                   "MPAS_FAULT: expected key=value, got '" << toks[i] << "'");
    const std::string key = toks[i].substr(0, eq);
    const std::string value = toks[i].substr(eq + 1);
    if (key == "from") {
      spec.from = parse_int(value, key);
    } else if (key == "to") {
      spec.to = parse_int(value, key);
    } else if (key == "tag") {
      spec.tag = parse_int(value, key);
    } else if (key == "buffer") {
      spec.buffer = parse_int(value, key);
    } else if (key == "rank") {
      spec.rank = parse_int(value, key);
    } else if (key == "step") {
      spec.step = parse_int(value, key);
    } else if (key == "op") {
      spec.op = parse_int(value, key);
    } else if (key == "repeat") {
      spec.repeat = parse_int(value, key);
    } else if (key == "p") {
      spec.probability = parse_real(value, key);
    } else if (key == "word") {
      spec.word = parse_uint(value, key);
    } else if (key == "bit") {
      spec.bit = static_cast<std::uint32_t>(parse_uint(value, key));
    } else if (key == "ms") {
      spec.stall_seconds = parse_real(value, key) * 1e-3;
    } else {
      MPAS_FAIL("MPAS_FAULT: unknown key '" << key << "'");
    }
  }
  MPAS_CHECK_MSG(!(counted && spec.probability > 0),
                 "MPAS_FAULT: '@event' and 'p=' are mutually exclusive");
  return spec;
}

}  // namespace

FaultCampaign parse_fault_campaign(const std::string& text) {
  FaultCampaign campaign;
  for (const auto& entry : split(text, ';')) {
    const auto toks = tokens(entry);
    if (toks.empty()) continue;  // tolerate empty entries / trailing ';'
    if (toks.front().rfind("seed=", 0) == 0) {
      MPAS_CHECK_MSG(toks.size() == 1,
                     "MPAS_FAULT: 'seed=' takes no further fields");
      campaign.seed = parse_uint(toks.front().substr(5), "seed");
      continue;
    }
    campaign.faults.push_back(parse_fault(toks));
  }
  return campaign;
}

std::string to_string(const FaultCampaign& campaign) {
  std::ostringstream out;
  out.precision(17);  // Real-valued keys (p, ms) must survive the round trip
  out << "seed=" << campaign.seed;
  for (const auto& spec : campaign.faults) {
    out << "; " << spec_kind_name(spec.kind);
    if (spec.probability <= 0) out << '@' << spec.at_event;
    if (spec.from != -1) out << " from=" << spec.from;
    if (spec.to != -1) out << " to=" << spec.to;
    if (spec.tag != -1) out << " tag=" << spec.tag;
    if (spec.buffer != -1) out << " buffer=" << spec.buffer;
    if (spec.rank != -1) out << " rank=" << spec.rank;
    if (spec.step != -1) out << " step=" << spec.step;
    if (spec.op != -1) out << " op=" << spec.op;
    if (spec.repeat != 1) out << " repeat=" << spec.repeat;
    if (spec.probability > 0) out << " p=" << spec.probability;
    if (spec.word != 0) out << " word=" << spec.word;
    if (spec.bit != FaultSpec{}.bit) out << " bit=" << spec.bit;
    if (spec.kind == FaultKind::RankStall &&
        spec.stall_seconds != FaultSpec{}.stall_seconds)
      out << " ms=" << spec.stall_seconds * 1e3;
  }
  return out.str();
}

void arm_campaign(FaultInjector& injector, const FaultCampaign& campaign) {
  for (const auto& spec : campaign.faults) injector.add(spec);
}

FaultInjector* env_fault_injector() {
  static std::unique_ptr<FaultInjector> injector;
  static std::once_flag once;
  std::call_once(once, [] {
    const auto text = env::text("MPAS_FAULT");
    if (!text) return;
    const FaultCampaign campaign = parse_fault_campaign(*text);
    injector = std::make_unique<FaultInjector>(campaign.seed);
    arm_campaign(*injector, campaign);
  });
  return injector.get();
}

}  // namespace mpas::resilience
