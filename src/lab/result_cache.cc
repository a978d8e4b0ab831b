#include "lab/result_cache.hh"

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "common/logging.hh"

namespace liquid::lab
{

namespace
{

/**
 * Serialize every SystemConfig field. Exhaustive on purpose: a knob
 * missing here would let two different configurations share a cache
 * entry, silently serving wrong results.
 */
std::string
serializeConfig(const SystemConfig &c)
{
    std::ostringstream os;
    os << "mode=" << modeName(c.mode) << ";simdWidth=" << c.simdWidth
       << ";pretranslate=" << c.pretranslate
       << ";core.simdWidth=" << c.core.simdWidth
       << ";core.translationEnabled=" << c.core.translationEnabled
       << ";core.missPenalty=" << c.core.missPenalty
       << ";core.busBytesPerCycle=" << c.core.busBytesPerCycle
       << ";core.takenBranchPenalty=" << c.core.takenBranchPenalty
       << ";core.floatAddLatency=" << c.core.floatAddLatency
       << ";core.floatMulLatency=" << c.core.floatMulLatency
       << ";core.icache=" << c.core.icache.sizeBytes << '/'
       << c.core.icache.assoc << '/' << c.core.icache.lineSize
       << ";core.dcache=" << c.core.dcache.sizeBytes << '/'
       << c.core.dcache.assoc << '/' << c.core.dcache.lineSize
       << ";core.faults=" << c.core.faults.key()
       << ";core.sabotage=" << c.core.sabotageAbandonUcodeOnInterrupt
       << ";core.maxInsts=" << c.core.maxInsts
       << ";tr.simdWidth=" << c.translator.simdWidth
       << ";tr.permRepertoire=" << c.translator.permRepertoire
       << ";tr.maxUcodeInsts=" << c.translator.maxUcodeInsts
       << ";tr.requireHint=" << c.translator.requireHint
       << ";tr.latencyPerInst=" << c.translator.latencyPerInst
       << ";tr.blacklistOnAbort=" << c.translator.blacklistOnAbort
       << ";tr.widthFallback=" << c.translator.widthFallback
       << ";tr.collapseEnabled=" << c.translator.collapseEnabled
       << ";ucache.entries=" << c.ucodeCache.entries
       << ";ucache.maxInsts=" << c.ucodeCache.maxInsts;
    return os.str();
}

std::string
serializeProgram(const Program &prog)
{
    std::ostringstream os;
    for (const auto &inst : prog.code())
        os << inst.toString() << '\n';
    os << "#data\n";
    const auto &data = prog.dataImage();
    os.write(reinterpret_cast<const char *>(data.data()),
             static_cast<std::streamsize>(data.size()));
    os << "#cvecs\n";
    for (const auto &cv : prog.cvecPool()) {
        for (Word w : cv.lanes)
            os << w << ',';
        os << '\n';
    }
    os << "#symbols\n";
    for (const auto &[name, addr] : prog.symbols())
        os << name << '=' << addr << '\n';
    return os.str();
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

std::string
contentHash(const Job &job, const Workload::Build &build,
            const SystemConfig &config)
{
    std::ostringstream os;
    os << "model=" << modelVersion << '\n'
       << "procedure=" << (job.warmStart ? "warmstart" : "single") << '\n'
       << "tier=" << fast::tierName(job.tier) << '\n'
       << serializeConfig(config) << '\n'
       << serializeProgram(build.prog);
    const std::string text = os.str();
    // Two independent FNV streams give a 128-bit key; with the model
    // version folded into the text, accidental collisions across the
    // matrix sizes we run are out of reach.
    const std::uint64_t lo = fnv1a(text);
    const std::uint64_t hi = fnv1a(text, 0x84222325cbf29ce4ull);
    return hex(hi) + hex(lo);
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    if (!dir_.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir_, ec);
        if (ec)
            fatal("lab cache: cannot create '", dir_, "': ",
                  ec.message());
    }
}

std::string
ResultCache::path(const std::string &hash) const
{
    return dir_ + "/" + hash + ".json";
}

std::optional<RunOutcome>
ResultCache::load(const std::string &hash) const
{
    if (!enabled())
        return std::nullopt;
    std::ifstream in(path(hash), std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    in.close();
    // A torn, hand-edited or misfiled entry is a miss, never an error:
    // the job simulates again and store() writes a fresh entry. The bad
    // one is moved aside to <hash>.json.bad for inspection; a failed
    // move is ignored (a concurrent loader may have moved it first).
    auto discard = [&]() -> std::optional<RunOutcome> {
        discarded_.fetch_add(1, std::memory_order_relaxed);
        std::error_code ec;
        std::filesystem::rename(path(hash), path(hash) + ".bad", ec);
        return std::nullopt;
    };
    try {
        const json::Value v = json::parse(text.str());
        if (v.at("hash").asString() != hash)
            return discard();
        return JobResult::fromJson(v.at("result")).outcome;
    } catch (const std::exception &) {
        return discard();
    }
}

void
ResultCache::store(const std::string &hash, const Job &job,
                   const RunOutcome &outcome) const
{
    if (!enabled())
        return;
    JobResult r;
    r.job = job;
    r.outcome = outcome;
    json::Value v = json::toolReport("liquid-lab-cache-v1", modelVersion);
    v.set("hash", hash);
    v.set("result", r.toJson());

    // Write-then-rename so a crashed run never leaves a torn entry
    // that a later run would half-parse. The temp name is unique to
    // this process and thread: concurrent writers of the same entry
    // (two runs sharing a cache) must not interleave into one file.
    const std::string final = path(hash);
    const std::string tmp =
        final + ".tmp." + std::to_string(::getpid()) + '.' +
        std::to_string(
            std::hash<std::thread::id>{}(std::this_thread::get_id()));
    {
        std::ofstream os(tmp, std::ios::binary);
        if (!os)
            fatal("lab cache: cannot write '", tmp, "'");
        os << v.toString();
    }
    std::error_code ec;
    std::filesystem::rename(tmp, final, ec);
    if (ec)
        fatal("lab cache: cannot commit '", final, "': ", ec.message());
}

} // namespace liquid::lab
