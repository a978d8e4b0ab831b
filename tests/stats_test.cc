/**
 * @file
 * StatGroup contract tests: bound counter handles and enum-indexed
 * families must produce exactly the counters the by-name API would —
 * same names, same values, same "absent until touched" rule — and
 * must stay valid when their owning component moves.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "asm/assembler.hh"
#include "chaos/fault_schedule.hh"
#include "common/stats.hh"
#include "cpu/core.hh"
#include "memory/cache.hh"
#include "memory/main_memory.hh"
#include "translator/abort_reason.hh"

namespace liquid
{
namespace
{

constexpr std::size_t numKinds =
    static_cast<std::size_t>(FaultKind::NumKinds);
constexpr std::size_t numReasons =
    static_cast<std::size_t>(AbortReason::NumReasons);

TEST(StatCounter, UntouchedCounterIsAbsent)
{
    StatGroup g("g");
    StatGroup::Counter hits{"hits"};
    StatGroup::Counter misses{"misses"};
    g.inc(hits);
    EXPECT_EQ(g.counters().count("hits"), 1u);
    EXPECT_EQ(g.counters().count("misses"), 0u);

    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "g.hits 1\n");
}

TEST(StatCounter, ComponentCountersAbsentUntilTouched)
{
    Cache cache("dcache", CacheConfig{});
    EXPECT_TRUE(cache.stats().counters().empty());
    cache.access(0, false);
    // A read miss into an empty set: no write, no eviction.
    EXPECT_EQ(cache.stats().get("accesses"), 1u);
    EXPECT_EQ(cache.stats().get("misses"), 1u);
    EXPECT_EQ(cache.stats().counters().count("writes"), 0u);
    EXPECT_EQ(cache.stats().counters().count("hits"), 0u);
    EXPECT_EQ(cache.stats().counters().count("evictions"), 0u);
}

TEST(StatCounter, ZeroDeltaAndSetCreateTheEntry)
{
    StatGroup g("g");
    StatGroup::Counter c{"c"};
    g.inc(c, 0);
    ASSERT_EQ(g.counters().count("c"), 1u);
    EXPECT_EQ(g.get("c"), 0u);

    g.set("s", 0);
    EXPECT_EQ(g.counters().count("s"), 1u);

    StatGroup::Family<FaultKind, numKinds> f{"faults.", faultKindName};
    g.inc(f, FaultKind::SmcStore, 0);
    EXPECT_EQ(g.counters().count("faults.smc"), 1u);
}

TEST(StatCounter, HandleAndNameShareOneCounter)
{
    StatGroup g("g");
    StatGroup::Counter c{"c"};
    g.inc("c", 2);
    g.inc(c, 3);
    g.inc("c");
    g.inc(c);
    EXPECT_EQ(g.get("c"), 7u);
    EXPECT_EQ(g.counters().size(), 1u);
}

TEST(StatCounter, ResetKeepsNamesAndHandles)
{
    StatGroup g("g");
    StatGroup::Counter c{"c"};
    g.inc(c, 5);
    g.set("s", 9);
    g.reset();
    EXPECT_EQ(g.counters().size(), 2u);
    EXPECT_EQ(g.get("c"), 0u);
    EXPECT_EQ(g.get("s"), 0u);
    g.inc(c);
    EXPECT_EQ(g.get("c"), 1u);
}

TEST(StatCounter, MergeAddsValues)
{
    StatGroup a("a"), b("b");
    StatGroup::Counter ca{"x"}, cb{"x"}, only{"y"};
    a.inc(ca, 2);
    b.inc(cb, 5);
    b.inc(only, 1);
    a.merge(b);
    EXPECT_EQ(a.get("x"), 7u);
    EXPECT_EQ(a.get("y"), 1u);
    EXPECT_EQ(b.get("x"), 5u);
    // a's handle still points at a's (merged) counter.
    a.inc(ca);
    EXPECT_EQ(a.get("x"), 8u);
    EXPECT_EQ(b.get("x"), 5u);
}

TEST(StatCounter, MovedGroupKeepsBoundSlots)
{
    StatGroup g("g");
    StatGroup::Counter c{"c"};
    g.inc(c);
    StatGroup moved(std::move(g));
    moved.inc(c);
    EXPECT_EQ(moved.get("c"), 2u);

    StatGroup assigned("other");
    assigned = std::move(moved);
    assigned.inc(c);
    EXPECT_EQ(assigned.get("c"), 3u);
}

TEST(StatCounter, MovingACacheKeepsHandlesValid)
{
    Cache a("dcache", CacheConfig{});
    a.access(0, false);   // binds accesses, misses
    a.access(0, true);    // binds writes, hits

    Cache b(std::move(a));
    b.access(0, false);
    b.access(64, true);
    EXPECT_EQ(b.stats().get("accesses"), 4u);
    EXPECT_EQ(b.stats().get("hits"), 2u);
    EXPECT_EQ(b.stats().get("misses"), 2u);
    EXPECT_EQ(b.stats().get("writes"), 2u);

    Cache c("dcache", CacheConfig{});
    c = std::move(b);
    c.access(0, false);
    EXPECT_EQ(c.stats().get("accesses"), 5u);
    EXPECT_EQ(c.stats().get("hits"), 3u);
}

constexpr const char *loopSrc = R"(
    .words src 1 2 3 4 5 6 7 8
    .data dst 32
    main:
        mov r0, #0
    top:
        ldw r1, [src + r0]
        add r1, r1, #3
        stw [dst + r0], r1
        add r0, r0, #1
        cmp r0, #8
        blt top
        halt
)";

TEST(StatCounter, MovingACoreKeepsHandlesValid)
{
    const Program prog = assemble(loopSrc);

    MainMemory refMem = MainMemory::forProgram(prog);
    Core ref(CoreConfig{}, prog, refMem);
    ref.run();

    MainMemory mem = MainMemory::forProgram(prog);
    Core first(CoreConfig{}, prog, mem);
    for (int i = 0; i < 12; ++i)
        ASSERT_TRUE(first.step());
    Core moved(std::move(first));
    moved.run();

    EXPECT_EQ(moved.stats().counters(), ref.stats().counters());
    EXPECT_EQ(moved.icache().stats().counters(),
              ref.icache().stats().counters());
    EXPECT_EQ(moved.dcache().stats().counters(),
              ref.dcache().stats().counters());
    EXPECT_EQ(moved.stats().get("insts"), ref.instsRetired());
}

TEST(StatFamily, FaultNamesMatchTheStringForm)
{
    StatGroup g("core");
    StatGroup::Family<FaultKind, numKinds> f{"faults.", faultKindName};
    for (std::size_t k = 0; k < numKinds; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        const std::string expected =
            std::string("faults.") + faultKindName(kind);
        g.inc(f, kind, k + 1);
        EXPECT_EQ(g.get(expected), k + 1);
    }
    EXPECT_EQ(g.counters().size(), numKinds);
}

TEST(StatFamily, CoreCountsEveryFaultKindUnderItsName)
{
    const Program prog = assemble(loopSrc);
    CoreConfig config;
    for (std::size_t k = 0; k < numKinds; ++k)
        config.faults.add(static_cast<FaultKind>(k), k + 1);
    MainMemory mem = MainMemory::forProgram(prog);
    Core core(config, prog, mem);
    core.run();
    for (std::size_t k = 0; k < numKinds; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        EXPECT_EQ(core.stats().get(std::string("faults.") +
                                   faultKindName(kind)),
                  1u)
            << faultKindName(kind);
    }
    EXPECT_EQ(core.stats().get("interrupts"), 1u);
}

TEST(StatFamily, ReasonNamesMatchTheStringForm)
{
    for (const char *prefix : {"abort.", "lost.", "retranslate."}) {
        SCOPED_TRACE(prefix);
        StatGroup g("translator");
        StatGroup::Family<AbortReason, numReasons> f{prefix,
                                                     abortReasonName};
        for (std::size_t r = 0; r < numReasons; ++r) {
            const auto reason = static_cast<AbortReason>(r);
            const std::string expected =
                std::string(prefix) + abortReasonName(reason);
            g.inc(f, reason);
            g.inc(f, reason);
            EXPECT_EQ(g.get(expected), 2u);
        }
        EXPECT_EQ(g.counters().size(), numReasons);
    }
}

} // namespace
} // namespace liquid
