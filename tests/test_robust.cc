/** @file Robustness tests: the style gate is sound against full
 * synthesis (style-reject implies synth-reject, swept over every
 * shipped design and minimized regression shapes), junk pragma
 * operands are located parse errors, and the disk cache's shard
 * reader survives seeded random bytes, bit flips and truncations. */

#include <gtest/gtest.h>

#include <climits>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include <unistd.h>

#include "cir/parser.h"
#include "cir/sema.h"
#include "cir/walk.h"
#include "hls/synth_check.h"
#include "stylecheck/stylecheck.h"
#include "subjects/forum_corpus.h"
#include "subjects/subjects.h"
#include "support/diagnostics.h"
#include "support/diskcache.h"
#include "support/rng.h"

namespace heterogen {
namespace {

namespace fs = std::filesystem;

// --- style gate soundness --------------------------------------------------

struct Verdicts
{
    style::StyleReport style;
    std::vector<hls::HlsError> synth;
};

Verdicts
judge(const std::string &src, const std::string &top)
{
    auto tu = cir::parse(src);
    cir::analyzeOrDie(*tu);
    return {style::checkStyle(*tu),
            hls::checkSynthesizability(*tu, hls::HlsConfig::forTop(top))};
}

/**
 * The gate's contract, rule by rule: every style issue is also a
 * synthesis error at the same line, so a style-rejected design is
 * always synth-rejected.
 */
void
expectSound(const Verdicts &v, const std::string &what)
{
    if (v.style.clean())
        return;
    EXPECT_FALSE(v.synth.empty())
        << what << ": style-rejected but synth-accepted ("
        << v.style.issues.front().message << ")";
    for (const style::StyleIssue &issue : v.style.issues) {
        bool matched = false;
        for (const hls::HlsError &e : v.synth)
            matched |= e.loc.line == issue.loc.line;
        EXPECT_TRUE(matched) << what << ": no synthesis error at line "
                             << issue.loc.line << " for style issue '"
                             << issue.message << "'";
    }
}

/** The four shapes synthesis once accepted while the gate rejected. */
const std::map<std::string, std::string> &
shapes()
{
    static const std::map<std::string, std::string> s = {
        {"unroll-outside-loop",
         "int hg_probe(int x) {\n#pragma HLS unroll\n    return x;\n}\n"},
        {"dataflow-below-top",
         "int hg_probe(int x) {\n    if (x > 0) {\n"
         "#pragma HLS dataflow\n        x = x - 1;\n    }\n"
         "    return x;\n}\n"},
        {"partition-unknown-variable",
         "int hg_probe(int x) {\n"
         "#pragma HLS array_partition variable=zz factor=2\n"
         "    return x;\n}\n"},
        {"unsized-array-param-off-top",
         "int hg_probe(int a[]) {\n    return a[0];\n}\n"},
    };
    return s;
}

const char *kTinyKernel = "int kernel(int a[4]) {\n    return a[0];\n}\n";

TEST(StyleGateSoundness, MinimizedShapesAreSynthErrors)
{
    for (const auto &[name, shape] : shapes()) {
        Verdicts v = judge(std::string(kTinyKernel) + shape, "kernel");
        EXPECT_FALSE(v.style.clean()) << name;
        expectSound(v, name);
    }
}

TEST(StyleGateSoundness, EveryShippedDesignAndGraftedShape)
{
    struct Design
    {
        std::string id, source, top;
    };
    std::vector<Design> designs;
    for (const auto *set :
         {&subjects::allSubjects(), &subjects::streamingSubjects()}) {
        for (const subjects::Subject &s : *set) {
            designs.push_back({s.id, s.source, s.kernel});
            designs.push_back({s.id + ":manual", s.manual_source, s.kernel});
        }
    }
    for (const subjects::ForumPost &post :
         subjects::generateForumCorpus(1000, 2022))
        designs.push_back(
            {"forum:" + std::to_string(post.post_id), post.snippet,
             "kernel"});
    ASSERT_EQ(designs.size(), 1028u);

    int style_rejects = 0;
    for (const Design &d : designs) {
        Verdicts plain = judge(d.source, d.top);
        expectSound(plain, d.id);
        style_rejects += !plain.style.clean();
        // Each shape grafted onto the design as an extra function: the
        // gate must reject it, and so must synthesis.
        for (const auto &[name, shape] : shapes()) {
            Verdicts v = judge(d.source + "\n" + shape, d.top);
            EXPECT_FALSE(v.style.clean()) << d.id << " + " << name;
            expectSound(v, d.id + " + " + name);
            style_rejects += !v.style.clean();
        }
    }
    EXPECT_GE(style_rejects, 4 * int(designs.size()));
}

// --- strict integer pragma operands -----------------------------------------

TEST(PragmaOperands, JunkIntegerOperandIsALocatedParseError)
{
    for (const char *operand :
         {"factor=4x)(", "factor=abc", "factor=", "factor", "II=1.5",
          "ii=+", "depth=99999999999999999999", "factor=0x10"}) {
        const std::string src = "int kernel(int a[8]) {\n"
                                "    int acc = 0;\n"
                                "    for (int i = 0; i < 8; i++) {\n"
                                "#pragma HLS unroll " +
                                std::string(operand) +
                                "\n        acc += a[i];\n    }\n"
                                "    return acc;\n}\n";
        try {
            cir::parse(src);
            ADD_FAILURE() << operand << " was accepted";
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(operand), std::string::npos) << msg;
            EXPECT_NE(msg.find(" at 4:"), std::string::npos) << msg;
        }
    }
}

TEST(PragmaOperands, WholeIntegersAndOtherKeysStillParse)
{
    auto tu = cir::parse("int kernel(int a[8]) {\n"
                         "#pragma HLS array_partition variable=a factor=2\n"
                         "    int acc = 0;\n"
                         "    for (int i = 0; i < 8; i++) {\n"
                         "#pragma HLS pipeline II=1\n"
                         "#pragma HLS unroll factor=-1\n"
                         "        acc += a[i];\n    }\n"
                         "    return acc;\n}\n");
    std::vector<const cir::PragmaInfo *> pragmas;
    cir::forEachStmt(static_cast<const cir::Stmt &>(*tu->functions[0]->body),
                     [&](const cir::Stmt &s) {
                         if (s.kind() == cir::StmtKind::Pragma)
                             pragmas.push_back(
                                 &static_cast<const cir::PragmaStmt &>(s)
                                      .info);
                     });
    ASSERT_EQ(pragmas.size(), 3u);
    EXPECT_EQ(pragmas[0]->paramInt("factor", 1), 2);
    EXPECT_EQ(pragmas[0]->paramStr("variable"), "a");
    EXPECT_EQ(pragmas[1]->paramInt("ii", 7), 1);
    EXPECT_EQ(pragmas[2]->paramInt("factor", 0), -1);
    // The fallback answers only a missing key.
    EXPECT_EQ(pragmas[1]->paramInt("factor", 7), 7);

    cir::PragmaInfo junk;
    junk.params["factor"] = "4x";
    EXPECT_THROW(junk.paramInt("factor", 1), FatalError);
}

// --- disk cache shard reader fuzz --------------------------------------------

/** A scratch cache directory, removed when the test ends. */
class ShardFuzz : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("hg-robust-" + std::to_string(::getpid()) + "-" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name()))
                   .string();
        fs::remove_all(dir_);
        opts_.dir = dir_;
        opts_.shards = 1;
        // Values exercise every escape the record format has.
        for (int i = 0; i < 24; ++i)
            entries_["key-" + std::to_string(i)] =
                "v" + std::to_string(i) + "\t\\tab\nline\r" +
                std::string(size_t(i), 'x');
        {
            DiskCache cache(opts_);
            for (const auto &[k, v] : entries_)
                cache.put(k, v);
            ASSERT_TRUE(cache.flush());
        }
        std::ifstream in(shardPath(), std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        pristine_ = bytes.str();
        ASSERT_FALSE(pristine_.empty());
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string shardPath() const { return dir_ + "/shard-00"; }

    /**
     * Replace the shard with `bytes` and open it: every lookup must be
     * a miss or the exact stored value, and a flush must leave a shard
     * that reloads with nothing invalid.
     */
    void
    loadMustSurvive(const std::string &bytes, const std::string &what)
    {
        {
            std::ofstream out(shardPath(),
                              std::ios::binary | std::ios::trunc);
            out << bytes;
        }
        try {
            DiskCache cache(opts_);
            const DiskCacheStats st = cache.stats();
            EXPECT_LE(st.loaded, int64_t(entries_.size())) << what;
            for (const auto &[k, v] : entries_) {
                std::optional<std::string> got = cache.find(k);
                if (got) {
                    EXPECT_EQ(*got, v) << what << ": " << k;
                }
            }
            EXPECT_FALSE(cache.find("never-stored").has_value()) << what;
            cache.put("fresh", "entry");
            EXPECT_TRUE(cache.flush()) << what;
            DiskCache reopened(opts_);
            EXPECT_EQ(reopened.stats().invalid, 0) << what;
            EXPECT_EQ(reopened.find("fresh"), "entry") << what;
        } catch (const std::exception &e) {
            ADD_FAILURE() << what << ": load threw " << e.what();
        }
    }

    std::string dir_;
    DiskCacheOptions opts_;
    std::map<std::string, std::string> entries_;
    std::string pristine_;
};

TEST_F(ShardFuzz, PristineShardLoadsEveryEntry)
{
    DiskCache cache(opts_);
    EXPECT_EQ(cache.stats().loaded, int64_t(entries_.size()));
    EXPECT_EQ(cache.stats().invalid, 0);
    for (const auto &[k, v] : entries_)
        EXPECT_EQ(cache.find(k), v);
}

TEST_F(ShardFuzz, RandomBytes)
{
    Rng rng(16);
    for (int round = 0; round < 64; ++round) {
        std::string bytes(size_t(rng.below(4096)), '\0');
        for (char &c : bytes) {
            // Bias towards the record alphabet so some lines get deep
            // into the parser instead of failing on the first field.
            c = rng.chance(0.3) ? "HGC1\t\n\\0123456789abcdef"[rng.below(22)]
                                : char(rng.below(256));
        }
        loadMustSurvive(bytes, "random round " + std::to_string(round));
    }
}

TEST_F(ShardFuzz, BitFlips)
{
    Rng rng(17);
    for (int round = 0; round < 96; ++round) {
        std::string bytes = pristine_;
        int flips = int(rng.range(1, 8));
        for (int f = 0; f < flips; ++f)
            bytes[rng.below(bytes.size())] ^= char(1u << rng.below(8));
        loadMustSurvive(bytes, "flip round " + std::to_string(round));
    }
}

TEST_F(ShardFuzz, Truncations)
{
    Rng rng(18);
    for (int round = 0; round < 64; ++round) {
        size_t cut = size_t(rng.below(pristine_.size()));
        loadMustSurvive(pristine_.substr(0, cut),
                        "cut at " + std::to_string(cut));
    }
    loadMustSurvive("", "empty shard");
}

TEST_F(ShardFuzz, ExtremeGenerationsAreCorruptNotOverflow)
{
    // A checksum-valid record whose generation stamp no store could
    // have written (random damage cannot forge the checksum, so this
    // one is crafted): the loader must skip it, not overflow the next
    // generation counter.
    std::string line = pristine_.substr(0, pristine_.find('\n'));
    std::vector<std::string> fields;
    std::stringstream ss(line);
    for (std::string f; std::getline(ss, f, '\t');)
        fields.push_back(f);
    ASSERT_EQ(fields.size(), 6u);
    for (const std::string &gen :
         {std::to_string(LLONG_MAX), std::to_string(LLONG_MAX - 1),
          std::string("99999999999999999999")}) {
        std::string prefix = fields[0] + '\t' + fields[1] + '\t' +
                             fields[2] + '\t' + gen + '\t' + fields[4];
        char cksum[17];
        std::snprintf(cksum, sizeof cksum, "%016llx",
                      static_cast<unsigned long long>(DiskCache::hash64(
                          prefix, 0x6a09e667f3bcc908ULL)));
        {
            std::ofstream out(shardPath(),
                              std::ios::binary | std::ios::trunc);
            out << prefix << '\t' << cksum << '\n';
        }
        DiskCache cache(opts_);
        EXPECT_EQ(cache.stats().loaded, 0) << gen;
        EXPECT_EQ(cache.stats().invalid, 1) << gen;
        loadMustSurvive(prefix + '\t' + cksum + '\n', "gen " + gen);
    }
}

} // namespace
} // namespace heterogen
