#include "repair/store.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "support/env.h"
#include "support/run_context.h"
#include "support/strings.h"

namespace heterogen::repair {

namespace fs = std::filesystem;

namespace {

/** Field / list-element / sub-field separators inside payloads. No
 * diagnostic or printed program contains these control characters. */
constexpr char kField = '\x1f';
constexpr char kElem = '\x1e';
constexpr char kSub = '\x1d';

/**
 * Doubles are serialized at %.17g — the same round-trip guarantee the
 * trace JSON relies on — so replayed charges are bit-exact.
 */
std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

bool
parseDouble(const std::string &s, double *out)
{
    char *end = nullptr;
    *out = std::strtod(s.c_str(), &end);
    return end != s.c_str() && *end == '\0';
}

bool
parseLong(const std::string &s, long long *out)
{
    char *end = nullptr;
    *out = std::strtoll(s.c_str(), &end, 10);
    return end != s.c_str() && *end == '\0';
}

std::string
joinLongs(const std::vector<long long> &vals)
{
    std::string out;
    for (size_t i = 0; i < vals.size(); ++i) {
        if (i)
            out.push_back(',');
        out += std::to_string(vals[i]);
    }
    return out;
}

bool
splitLongs(const std::string &s, std::vector<long long> *out)
{
    out->clear();
    if (s.empty())
        return true;
    for (const std::string &part : split(s, ',')) {
        long long v = 0;
        if (!parseLong(part, &v))
            return false;
        out->push_back(v);
    }
    return true;
}

std::string
encodeCompile(const hls::CompileResult &r)
{
    std::string errors;
    for (size_t i = 0; i < r.errors.size(); ++i) {
        const hls::HlsError &e = r.errors[i];
        if (i)
            errors.push_back(kElem);
        errors += e.code;
        errors.push_back(kSub);
        errors += e.message;
        errors.push_back(kSub);
        errors += std::to_string(static_cast<int>(e.category));
        errors.push_back(kSub);
        errors += e.symbol;
        errors.push_back(kSub);
        errors += std::to_string(e.loc.line);
        errors.push_back(kSub);
        errors += std::to_string(e.loc.column);
    }
    std::string out = r.ok ? "1" : "0";
    out.push_back(kField);
    out += fmtDouble(r.synth_minutes);
    out.push_back(kField);
    out += std::to_string(r.loc);
    out.push_back(kField);
    out += joinLongs({r.resources.luts, r.resources.ffs,
                      r.resources.dsps, r.resources.bram_bits,
                      r.resources.memory_banks});
    out.push_back(kField);
    out += errors;
    return out;
}

std::optional<hls::CompileResult>
decodeCompile(const std::string &payload)
{
    std::vector<std::string> fields = split(payload, kField);
    if (fields.size() != 5 || (fields[0] != "0" && fields[0] != "1"))
        return std::nullopt;
    hls::CompileResult r;
    r.ok = fields[0] == "1";
    long long loc = 0;
    std::vector<long long> res;
    if (!parseDouble(fields[1], &r.synth_minutes) ||
        !parseLong(fields[2], &loc) || !splitLongs(fields[3], &res) ||
        res.size() != 5) {
        return std::nullopt;
    }
    r.loc = static_cast<int>(loc);
    r.resources.luts = res[0];
    r.resources.ffs = res[1];
    r.resources.dsps = res[2];
    r.resources.bram_bits = res[3];
    r.resources.memory_banks = res[4];
    if (!fields[4].empty()) {
        for (const std::string &enc : split(fields[4], kElem)) {
            std::vector<std::string> sub = split(enc, kSub);
            if (sub.size() != 6)
                return std::nullopt;
            long long category = 0, line = 0, column = 0;
            if (!parseLong(sub[2], &category) ||
                !parseLong(sub[4], &line) ||
                !parseLong(sub[5], &column) || category < 0 ||
                category >= hls::kNumErrorCategories) {
                return std::nullopt;
            }
            hls::HlsError e;
            e.code = sub[0];
            e.message = sub[1];
            e.category = static_cast<hls::ErrorCategory>(category);
            e.symbol = sub[3];
            e.loc.line = static_cast<int>(line);
            e.loc.column = static_cast<int>(column);
            r.errors.push_back(std::move(e));
        }
    }
    return r;
}

std::string
encodeDiffTest(const DiffTestResult &r)
{
    std::vector<long long> failing(r.failing.begin(), r.failing.end());
    std::string out = std::to_string(r.total);
    out.push_back(kField);
    out += std::to_string(r.identical);
    out.push_back(kField);
    out += joinLongs(failing);
    out.push_back(kField);
    out += fmtDouble(r.cpu_millis);
    out.push_back(kField);
    out += fmtDouble(r.fpga_millis);
    out.push_back(kField);
    out += fmtDouble(r.sim_minutes);
    return out;
}

std::optional<DiffTestResult>
decodeDiffTest(const std::string &payload)
{
    std::vector<std::string> fields = split(payload, kField);
    if (fields.size() != 6)
        return std::nullopt;
    DiffTestResult r;
    long long total = 0, identical = 0;
    std::vector<long long> failing;
    if (!parseLong(fields[0], &total) ||
        !parseLong(fields[1], &identical) ||
        !splitLongs(fields[2], &failing) ||
        !parseDouble(fields[3], &r.cpu_millis) ||
        !parseDouble(fields[4], &r.fpga_millis) ||
        !parseDouble(fields[5], &r.sim_minutes)) {
        return std::nullopt;
    }
    r.total = static_cast<int>(total);
    r.identical = static_cast<int>(identical);
    for (long long f : failing)
        r.failing.push_back(static_cast<int>(f));
    return r;
}

std::string
encodeStyle(const style::StyleReport &r)
{
    std::string issues;
    for (size_t i = 0; i < r.issues.size(); ++i) {
        const style::StyleIssue &issue = r.issues[i];
        if (i)
            issues.push_back(kElem);
        issues += issue.message;
        issues.push_back(kSub);
        issues += std::to_string(issue.loc.line);
        issues.push_back(kSub);
        issues += std::to_string(issue.loc.column);
    }
    std::string out = fmtDouble(r.check_minutes);
    out.push_back(kField);
    out += issues;
    return out;
}

std::optional<style::StyleReport>
decodeStyle(const std::string &payload)
{
    std::vector<std::string> fields = split(payload, kField);
    if (fields.size() != 2)
        return std::nullopt;
    style::StyleReport r;
    r.issues.clear();
    if (!parseDouble(fields[0], &r.check_minutes))
        return std::nullopt;
    if (!fields[1].empty()) {
        for (const std::string &enc : split(fields[1], kElem)) {
            std::vector<std::string> sub = split(enc, kSub);
            if (sub.size() != 3)
                return std::nullopt;
            long long line = 0, column = 0;
            if (!parseLong(sub[1], &line) ||
                !parseLong(sub[2], &column)) {
                return std::nullopt;
            }
            style::StyleIssue issue;
            issue.message = sub[0];
            issue.loc.line = static_cast<int>(line);
            issue.loc.column = static_cast<int>(column);
            r.issues.push_back(std::move(issue));
        }
    }
    return r;
}

std::string
kindKey(const char *kind, const std::string &key)
{
    std::string out = kind;
    out.push_back(kField);
    out += key;
    return out;
}

} // namespace

std::string
defaultCacheDir()
{
    auto dir = readEnvKnob(
        "HETEROGEN_CACHE_DIR", "a creatable, writable directory",
        [](const std::string &v) -> std::optional<std::string> {
            std::string err = cacheDirError(v);
            if (!err.empty())
                fatal(err);
            return v;
        });
    return dir.value_or("");
}

std::string
defaultToolchainVersion()
{
    return std::string("hgc1;sim=") + hls::kSimulatorVersion +
           ";style=" + style::kStyleCheckerVersion;
}

std::string
cacheDirError(const std::string &dir)
{
    if (trim(dir).empty())
        return "cache: cache_dir must name a directory "
               "(got a blank string)";
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (!fs::is_directory(dir, ec))
        return "cache: cache_dir '" + dir +
               "' cannot be created as a directory";
    static std::atomic<uint64_t> probe_seq{0};
    fs::path probe =
        fs::path(dir) / (".probe-" + std::to_string(::getpid()) + "-" +
                         std::to_string(probe_seq.fetch_add(1)));
    {
        std::ofstream out(probe, std::ios::trunc);
        out << "probe";
        out.flush();
        if (!out.good()) {
            fs::remove(probe, ec);
            return "cache: cache_dir '" + dir + "' is not writable";
        }
    }
    fs::remove(probe, ec);
    return "";
}

VerdictStore::VerdictStore(VerdictStoreOptions options)
    : version_(options.version.empty() ? defaultToolchainVersion()
                                       : options.version),
      cache_([&] {
          DiskCacheOptions dc;
          dc.dir = options.dir;
          dc.version = options.version.empty()
                           ? defaultToolchainVersion()
                           : options.version;
          dc.max_entries_per_shard = options.max_entries_per_shard;
          dc.pre_publish_hook = options.pre_publish_hook;
          return dc;
      }())
{
}

std::optional<std::string>
VerdictStore::findRaw(RunContext *ctx, const std::string &key)
{
    std::optional<std::string> raw = cache_.find(key);
    if (!raw) {
        if (ctx)
            ctx->count("repair.diskcache.misses");
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.misses += 1;
    }
    return raw;
}

void
VerdictStore::storeRaw(RunContext *ctx, const std::string &key,
                       const std::string &value)
{
    if (!cache_.enabled())
        return;
    // Counted against the load-time snapshot — not the shared write
    // buffer — so a job's write count is a pure function of
    // (snapshot, job) and stays bit-identical at any thread count.
    if (cache_.snapshotHas(key))
        return;
    if (ctx)
        ctx->count("repair.diskcache.writes");
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.writes += 1;
    }
    cache_.put(key, value);
}

void
VerdictStore::countSaved(double minutes)
{
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.hits += 1;
    stats_.minutes_saved += minutes;
}

void
VerdictStore::countDecodeFailure(RunContext *ctx)
{
    if (ctx) {
        ctx->count("repair.diskcache.misses");
        ctx->count("repair.diskcache.invalid");
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.misses += 1;
}

std::optional<hls::CompileResult>
VerdictStore::findCompile(RunContext *ctx,
                          const std::string &fingerprint)
{
    std::optional<std::string> raw =
        findRaw(ctx, kindKey("compile", fingerprint));
    if (!raw)
        return std::nullopt;
    std::optional<hls::CompileResult> decoded = decodeCompile(*raw);
    if (!decoded) {
        countDecodeFailure(ctx);
        return std::nullopt;
    }
    if (ctx)
        ctx->count("repair.diskcache.hits");
    countSaved(decoded->synth_minutes);
    return decoded;
}

void
VerdictStore::storeCompile(RunContext *ctx,
                           const std::string &fingerprint,
                           const hls::CompileResult &result)
{
    if (result.tool_failure)
        return; // never persisted — see the file comment
    storeRaw(ctx, kindKey("compile", fingerprint),
             encodeCompile(result));
}

std::optional<DiffTestResult>
VerdictStore::findDiffTest(RunContext *ctx, const std::string &key)
{
    std::optional<std::string> raw =
        findRaw(ctx, kindKey("difftest", key));
    if (!raw)
        return std::nullopt;
    std::optional<DiffTestResult> decoded = decodeDiffTest(*raw);
    if (!decoded) {
        countDecodeFailure(ctx);
        return std::nullopt;
    }
    if (ctx)
        ctx->count("repair.diskcache.hits");
    countSaved(decoded->sim_minutes);
    return decoded;
}

void
VerdictStore::storeDiffTest(RunContext *ctx, const std::string &key,
                            const DiffTestResult &result)
{
    if (result.tool_failure)
        return; // never persisted — see the file comment
    storeRaw(ctx, kindKey("difftest", key), encodeDiffTest(result));
}

std::optional<style::StyleReport>
VerdictStore::findStyle(RunContext *ctx,
                        const std::string &printed_program)
{
    std::optional<std::string> raw =
        findRaw(ctx, kindKey("style", printed_program));
    if (!raw)
        return std::nullopt;
    std::optional<style::StyleReport> decoded = decodeStyle(*raw);
    if (!decoded) {
        countDecodeFailure(ctx);
        return std::nullopt;
    }
    if (ctx)
        ctx->count("repair.diskcache.hits");
    countSaved(decoded->check_minutes);
    return decoded;
}

void
VerdictStore::storeStyle(RunContext *ctx,
                         const std::string &printed_program,
                         const style::StyleReport &report)
{
    storeRaw(ctx, kindKey("style", printed_program),
             encodeStyle(report));
}

VerdictStats
VerdictStore::stats() const
{
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
}

} // namespace heterogen::repair
