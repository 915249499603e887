#include "layout/registry.hpp"

#include <gtest/gtest.h>

#include "layout/architecture.hpp"

namespace sma::layout {
namespace {

LayoutDescriptor minimal_descriptor(std::string name) {
  LayoutDescriptor d;
  d.name = std::move(name);
  d.summary = "test layout";
  d.map = [](const LayoutConfig&, Pos p) { return p; };
  return d;
}

TEST(LayoutRegistrySpec, ParsesNameOnly) {
  auto spec = parse_layout_spec("shifted");
  ASSERT_TRUE(spec.is_ok());
  EXPECT_EQ(spec.value().name, "shifted");
  EXPECT_TRUE(spec.value().params.empty());
}

TEST(LayoutRegistrySpec, ParsesKeyValueList) {
  auto spec = parse_layout_spec("lrc:groups=2,extra=7");
  ASSERT_TRUE(spec.is_ok());
  EXPECT_EQ(spec.value().name, "lrc");
  ASSERT_EQ(spec.value().params.size(), 2u);
  EXPECT_EQ(spec.value().params.at("groups"), "2");
  EXPECT_EQ(spec.value().params.at("extra"), "7");
}

TEST(LayoutRegistrySpec, BareValueUsesEmptyKeyMarker) {
  auto spec = parse_layout_spec("iterated:3");
  ASSERT_TRUE(spec.is_ok());
  ASSERT_EQ(spec.value().params.size(), 1u);
  EXPECT_EQ(spec.value().params.at(""), "3");
}

TEST(LayoutRegistrySpec, RejectsMalformedSpecs) {
  for (const char* bad : {"", ":3", "name:", "name:,", "name:=3",
                          "name:a=1,a=2", "name:3,4"}) {
    auto spec = parse_layout_spec(bad);
    EXPECT_FALSE(spec.is_ok()) << "spec '" << bad << "' should not parse";
    if (!spec.is_ok()) {
      EXPECT_EQ(spec.status().code(), ErrorCode::kInvalidArgument) << bad;
    }
  }
}

TEST(LayoutRegistry, DuplicateNameRejected) {
  AlgorithmRegistry reg;
  ASSERT_TRUE(reg.add(minimal_descriptor("dup")).is_ok());
  Status again = reg.add(minimal_descriptor("dup"));
  EXPECT_EQ(again.code(), ErrorCode::kAlreadyExists);
  // Aliases share the namespace in both directions.
  ASSERT_TRUE(reg.add_alias("other", "dup").is_ok());
  EXPECT_EQ(reg.add(minimal_descriptor("other")).code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(reg.add_alias("dup", "dup").code(), ErrorCode::kAlreadyExists);
}

TEST(LayoutRegistry, MalformedDescriptorRejected) {
  AlgorithmRegistry reg;
  EXPECT_EQ(reg.add(minimal_descriptor("")).code(),
            ErrorCode::kInvalidArgument);
  LayoutDescriptor no_map = minimal_descriptor("no-map");
  no_map.map = nullptr;
  EXPECT_EQ(reg.add(no_map).code(), ErrorCode::kInvalidArgument);
}

TEST(LayoutRegistry, UnknownNameIsNotFound) {
  const auto& reg = AlgorithmRegistry::global();
  auto found = reg.find("bogus");
  ASSERT_FALSE(found.is_ok());
  EXPECT_EQ(found.status().code(), ErrorCode::kNotFound);
  // The error names the registered layouts so the CLI message is usable.
  EXPECT_NE(found.status().to_string().find("shifted"), std::string::npos);
  EXPECT_EQ(reg.make("bogus", 4).status().code(), ErrorCode::kNotFound);
  AlgorithmRegistry fresh;
  EXPECT_EQ(fresh.add_alias("alias", "bogus").code(), ErrorCode::kNotFound);
}

TEST(LayoutRegistry, AliasesResolveToCanonicalNames) {
  AlgorithmRegistry reg;
  ASSERT_TRUE(reg.add(minimal_descriptor("canon")).is_ok());
  ASSERT_TRUE(reg.add_alias("spelling", "canon").is_ok());
  auto canon = reg.canonical("spelling");
  ASSERT_TRUE(canon.is_ok());
  EXPECT_EQ(canon.value(), "canon");
  auto direct = reg.find("spelling");
  ASSERT_TRUE(direct.is_ok());
  EXPECT_EQ(direct.value()->name, "canon");
  // names() lists canonical names only, in registration order.
  ASSERT_EQ(reg.names().size(), 1u);
  EXPECT_EQ(reg.names().front(), "canon");

  // The global registry carries no aliases: the retired pre-registry
  // spellings are unknown layouts now.
  const auto& global = AlgorithmRegistry::global();
  for (const char* retired : {"mirror-traditional", "mirror-shifted",
                              "identity"})
    EXPECT_EQ(global.find(retired).status().code(), ErrorCode::kNotFound)
        << retired;
  const auto names = global.names();
  ASSERT_GE(names.size(), 6u);
  EXPECT_EQ(names.front(), "traditional");
}

TEST(LayoutRegistry, ConfigureValidation) {
  const auto& reg = AlgorithmRegistry::global();
  // groups must divide n.
  EXPECT_EQ(reg.make("lrc:groups=5", 6).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(reg.make("pyramid:groups=4", 6).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(reg.make("lrc:groups=0", 6).status().code(),
            ErrorCode::kInvalidArgument);
  // Non-integer and unknown parameters are rejected.
  EXPECT_EQ(reg.make("lrc:groups=two", 6).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(reg.make("lrc:color=red", 6).status().code(),
            ErrorCode::kInvalidArgument);
  // Layouts without a configure hook take no parameters at all.
  EXPECT_EQ(reg.make("traditional:x=1", 4).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(reg.make("zigzag:2", 4).status().code(),
            ErrorCode::kInvalidArgument);
  // A bare value must not collide with its expanded spelling.
  EXPECT_EQ(reg.make("iterated:3,iterations=3", 5).status().code(),
            ErrorCode::kInvalidArgument);
  // min_n is enforced before configure runs.
  EXPECT_EQ(reg.make("lrc", 1).status().code(), ErrorCode::kInvalidArgument);
}

TEST(LayoutRegistry, EveryBuiltinIsABijectionWithConsistentInverse) {
  const auto& reg = AlgorithmRegistry::global();
  for (const std::string& name : reg.names()) {
    const int min_n = reg.find(name).value()->min_n;
    for (int n : {2, 3, 5, 6, 8}) {
      if (n < min_n) continue;
      auto arr = reg.make(name, n);
      if (!arr.is_ok()) {
        // The grouped layouts default to groups = 2; at odd n that
        // fails configure validation and one flat group must work.
        EXPECT_EQ(arr.status().code(), ErrorCode::kInvalidArgument)
            << name << " n=" << n;
        arr = reg.make(name + ":groups=1", n);
      }
      ASSERT_TRUE(arr.is_ok()) << name << " n=" << n;
      const MirrorArrangement& a = *arr.value();
      EXPECT_TRUE(a.is_bijection()) << name << " n=" << n;
      for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j) {
          const Pos m = a.mirror_of(i, j);
          EXPECT_EQ(a.data_of(m.disk, m.row), (Pos{i, j}))
              << name << " n=" << n << " i=" << i << " j=" << j;
          const auto partner = a.partner_of(m.disk, m.row);
          ASSERT_TRUE(partner.has_value());
          EXPECT_EQ(*partner, (Pos{i, j}));
        }
    }
  }
}

TEST(LayoutRegistry, MatchesPreRegistryArrangementsBitForBit) {
  const auto& reg = AlgorithmRegistry::global();
  for (int n : {3, 5, 6}) {
    const TraditionalArrangement trad(n);
    const ShiftedArrangement shift(n);
    const ArrangementPtr iter = make_iterated(n, 3);
    const struct {
      const char* spec;
      const MirrorArrangement* classic;
    } cases[] = {{"traditional", &trad}, {"shifted", &shift},
                 {"iterated:3", iter.get()}};
    for (const auto& c : cases) {
      auto arr = reg.make(c.spec, n);
      ASSERT_TRUE(arr.is_ok()) << c.spec;
      for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j) {
          EXPECT_EQ(arr.value()->mirror_of(i, j), c.classic->mirror_of(i, j))
              << c.spec << " n=" << n;
          EXPECT_EQ(arr.value()->data_of(i, j), c.classic->data_of(i, j))
              << c.spec << " n=" << n;
        }
    }
    // The iterated family keeps the table-backed family's display name.
    EXPECT_EQ(reg.make("iterated:3", n).value()->name(), iter->name());
  }
}

TEST(LayoutRegistry, RebuildReadAccessesMatchTheLayoutsStory) {
  const auto& reg = AlgorithmRegistry::global();
  const struct {
    const char* spec;
    int expected;  // max per-disk element reads rebuilding data disk 0
  } cases[] = {{"traditional", 6}, {"shifted", 1}, {"zigzag", 1},
               {"lrc:groups=2", 2}, {"pyramid:groups=2", 1}};
  for (const auto& c : cases) {
    auto arr = reg.make(c.spec, 6);
    ASSERT_TRUE(arr.is_ok()) << c.spec;
    auto* regarr = dynamic_cast<const RegistryArrangement*>(arr.value().get());
    ASSERT_NE(regarr, nullptr) << c.spec;
    EXPECT_EQ(rebuild_read_accesses(*regarr, 0), c.expected) << c.spec;
    EXPECT_EQ(rebuild_reads(*regarr, 0).size(), 6u) << c.spec;
  }
}

TEST(LayoutRegistry, LrcRebuildReadSetStaysInsideTheGroup) {
  const auto& reg = AlgorithmRegistry::global();
  auto arr = reg.make("lrc:groups=2", 6);
  ASSERT_TRUE(arr.is_ok());
  const auto* regarr =
      dynamic_cast<const RegistryArrangement*>(arr.value().get());
  ASSERT_NE(regarr, nullptr);
  ASSERT_TRUE(regarr->descriptor().rebuild_read_set != nullptr);
  // Failed data disk 1 lives in group 0 (disks 0..2): every read must
  // come from that group's mirror columns.
  for (const Pos& read : rebuild_reads(*regarr, 1)) {
    EXPECT_GE(read.disk, 0);
    EXPECT_LT(read.disk, 3);
  }
}

TEST(LayoutRegistry, PartnerOfReportsMalformedMaps) {
  // A deliberately non-bijective arrangement: every data element lands
  // on mirror cell (0, 0). partner_of must report the uncovered cells
  // instead of fabricating a data position.
  class Collapsing final : public MirrorArrangement {
   public:
    std::string name() const override { return "collapsing"; }
    int n() const override { return 3; }
    Pos mirror_of(int, int) const override { return {0, 0}; }
  };
  const Collapsing bad;
  EXPECT_FALSE(bad.is_bijection());
  EXPECT_FALSE(bad.partner_of(1, 1).has_value());
  EXPECT_FALSE(bad.partner_of(2, 0).has_value());
  // The one covered cell reports the first data element that maps there.
  const auto hit = bad.partner_of(0, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (Pos{0, 0}));
}

TEST(LayoutRegistry, MakeRejectsNonBijectiveDescriptors) {
  AlgorithmRegistry reg;
  LayoutDescriptor d = minimal_descriptor("collapse");
  d.map = [](const LayoutConfig&, Pos) { return Pos{0, 0}; };
  ASSERT_TRUE(reg.add(std::move(d)).is_ok());
  auto arr = reg.make("collapse", 3);
  ASSERT_FALSE(arr.is_ok());
  EXPECT_EQ(arr.status().code(), ErrorCode::kFailedPrecondition);
}

TEST(LayoutRegistry, CapabilityFlagsGateTheParityWrapper) {
  // All built-ins are safe under the double-failure machinery.
  const auto& reg = AlgorithmRegistry::global();
  for (const std::string& name : reg.names())
    EXPECT_TRUE(reg.find(name).value()->supports_second_failure) << name;

  // A layout that clears the flag builds as a plain mirror but the
  // parity wrapper refuses it.
  LayoutDescriptor d = minimal_descriptor("test-frail");
  d.supports_second_failure = false;
  Status added = AlgorithmRegistry::global().add(std::move(d));
  if (added.is_ok()) {  // another test in this process may have added it
    auto plain = Architecture::mirror_named(4, "test-frail");
    ASSERT_TRUE(plain.is_ok());
    EXPECT_EQ(plain.value().kind(), ArchKind::kMirror);
    EXPECT_EQ(plain.value().layout_spec(), "test-frail");
    auto parity = Architecture::mirror_with_parity_named(4, "test-frail");
    ASSERT_FALSE(parity.is_ok());
    EXPECT_EQ(parity.status().code(), ErrorCode::kFailedPrecondition);
  }
}

TEST(LayoutRegistry, MirrorNamedCollapsesClassicSpellings) {
  // Param-less traditional/shifted specs build the classic
  // arrangements so every downstream name, CSV column and drift-gated
  // result stays bit-identical.
  auto trad = Architecture::mirror_named(5, "traditional");
  ASSERT_TRUE(trad.is_ok());
  EXPECT_EQ(trad.value().kind(), ArchKind::kMirror);
  EXPECT_FALSE(trad.value().is_shifted());
  EXPECT_EQ(trad.value().name(), "mirror-traditional");
  auto shifted = Architecture::mirror_named(5, "shifted");
  ASSERT_TRUE(shifted.is_ok());
  EXPECT_TRUE(shifted.value().is_shifted());
  EXPECT_EQ(shifted.value().name(), "mirror-shifted");

  auto zig = Architecture::mirror_named(5, "zigzag");
  ASSERT_TRUE(zig.is_ok());
  EXPECT_EQ(zig.value().kind(), ArchKind::kMirror);
  EXPECT_FALSE(zig.value().is_shifted());
  EXPECT_EQ(zig.value().layout_spec(), "zigzag");
  EXPECT_EQ(zig.value().name(), "mirror-zigzag");

  auto parity = Architecture::mirror_with_parity_named(6, "lrc");
  ASSERT_TRUE(parity.is_ok());
  EXPECT_EQ(parity.value().kind(), ArchKind::kMirror);
  EXPECT_TRUE(parity.value().has_parity());
  EXPECT_EQ(parity.value().name(), "mirror-parity-lrc(groups=2)");
  EXPECT_EQ(parity.value().fault_tolerance(), 2);
}

}  // namespace
}  // namespace sma::layout
