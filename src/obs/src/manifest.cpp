#include "pml/obs/manifest.hpp"

#include <cstdio>
#include <ctime>
#include <thread>

namespace pml::obs {

std::uint64_t fnv1a64(std::string_view data) {
  return Fnv1a().update(data).digest();
}

RunManifest RunManifest::collect() {
  RunManifest m;
#ifdef PML_GIT_DESCRIBE
  m.version = PML_GIT_DESCRIBE;
#else
  m.version = "unknown";
#endif
#if defined(__clang__)
  m.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  m.compiler = "gcc " __VERSION__;
#else
  m.compiler = "unknown";
#endif
#ifdef NDEBUG
  m.build_type = "release";
#else
  m.build_type = "debug";
#endif
  m.hardware_threads = std::thread::hardware_concurrency();
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
#if defined(_WIN32)
  gmtime_s(&utc, &now);
#else
  gmtime_r(&now, &utc);
#endif
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &utc);
  m.timestamp_utc = buf;
  return m;
}

void RunManifest::digest_options(std::string_view description) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(description)));
  options_digest = buf;
  extra.emplace_back("options", std::string(description));
}

Json RunManifest::to_json() const {
  Json j = Json::object();
  j.set("tool", tool);
  j.set("version", version);
  j.set("compiler", compiler);
  j.set("build_type", build_type);
  j.set("hardware_threads", hardware_threads);
  j.set("timestamp_utc", timestamp_utc);
  if (seed != 0) j.set("seed", seed);
  if (!options_digest.empty()) j.set("options_digest", options_digest);
  for (const auto& [k, v] : extra) j.set(k, v);
  return j;
}

}  // namespace pml::obs
