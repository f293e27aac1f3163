#include "bench_harness/env_fingerprint.hpp"

#include <thread>

#include "obs/trace.hpp"  // json_escape
#include "util/env.hpp"

namespace mpas::bench_harness {

namespace {

std::string compiler_string() {
#if defined(__clang__)
  return std::string("clang ") + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return std::string("gcc ") + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

std::string os_string() {
#if defined(__linux__)
  return "linux";
#elif defined(__APPLE__)
  return "darwin";
#elif defined(_WIN32)
  return "windows";
#else
  return "unknown";
#endif
}

std::string quoted(const std::string& s) {
  return '"' + obs::json_escape(s) + '"';
}

}  // namespace

std::string EnvFingerprint::to_json() const {
  std::string out = "{\"git_sha\":" + quoted(git_sha) +
                    ",\"compiler\":" + quoted(compiler) +
                    ",\"build_type\":" + quoted(build_type) +
                    ",\"flags\":" + quoted(flags) + ",\"os\":" + quoted(os) +
                    ",\"hardware_threads\":" +
                    std::to_string(hardware_threads) +
                    ",\"machine_preset\":" + quoted(machine_preset) +
                    ",\"mesh_level\":" + std::to_string(mesh_level) +
                    ",\"config\":{";
  bool first = true;
  for (const auto& [name, value] : config) {
    if (!first) out += ',';
    first = false;
    out += quoted(name) + ':' + quoted(value);
  }
  out += "}}";
  return out;
}

EnvFingerprint EnvFingerprint::from_json(const obs::json::Value& doc) {
  EnvFingerprint fp;
  fp.git_sha = doc.at("git_sha").as_string();
  fp.compiler = doc.at("compiler").as_string();
  fp.build_type = doc.at("build_type").as_string();
  fp.flags = doc.at("flags").as_string();
  fp.os = doc.at("os").as_string();
  fp.hardware_threads =
      static_cast<int>(doc.at("hardware_threads").as_number());
  fp.machine_preset = doc.at("machine_preset").as_string();
  fp.mesh_level = static_cast<int>(doc.at("mesh_level").as_number());
  if (doc.has("config"))
    for (const auto& [name, value] : doc.at("config").as_object())
      fp.config[name] = value.as_string();
  return fp;
}

EnvFingerprint current_fingerprint() {
  EnvFingerprint fp;
#ifdef MPAS_GIT_SHA
  fp.git_sha = MPAS_GIT_SHA;
#else
  fp.git_sha = "unknown";
#endif
  fp.compiler = compiler_string();
#ifdef MPAS_BUILD_TYPE
  fp.build_type = MPAS_BUILD_TYPE;
#else
  fp.build_type = "unknown";
#endif
#ifdef MPAS_CXX_FLAGS
  fp.flags = MPAS_CXX_FLAGS;
#endif
  fp.os = os_string();
  fp.hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  for (auto& [name, value] : env::resolved())
    fp.config.emplace(name, std::move(value));
  return fp;
}

}  // namespace mpas::bench_harness
