// Round-trip tests for the offline-artifact persistence: build + prune,
// save, reload into a fresh process-like state, and verify the query engine
// behaves identically.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "biozon/domain.h"
#include "biozon/generator.h"
#include "core/builder.h"
#include "core/persistence.h"
#include "core/pruner.h"
#include "engine/engine.h"

namespace tsb {
namespace {

namespace fs = std::filesystem;
using engine::MethodKind;

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tsb_persist_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);

    config_.seed = 321;
    config_.scale = 0.05;
    ids_ = biozon::GenerateBiozon(config_, &db_);
    view_ = std::make_unique<graph::DataGraphView>(db_);
    schema_ = std::make_unique<graph::SchemaGraph>(db_);
    core::TopologyBuilder builder(&db_, schema_.get(), view_.get());
    core::BuildConfig build;
    build.max_path_length = 3;
    ASSERT_TRUE(
        builder.BuildPair(ids_.protein, ids_.dna, build, &store_).ok());
    ASSERT_TRUE(builder
                    .BuildPair(ids_.protein, ids_.interaction, build,
                               &store_)
                    .ok());
    core::PruneConfig prune;
    prune.frequency_threshold =
        store_.FindPair(ids_.protein, ids_.dna)->num_related_pairs / 50;
    ASSERT_TRUE(core::PruneFrequentTopologies(&db_, &store_, ids_.protein,
                                              ids_.dna, prune)
                    .ok());
    // Protein-Interaction left unpruned: exercises the pruned flag.
  }

  void TearDown() override { fs::remove_all(dir_); }

  /// A fresh catalog holding only the base data (simulates a new process).
  void RebuildBaseCatalog(storage::Catalog* fresh) {
    biozon::BiozonSchema ids = biozon::GenerateBiozon(config_, fresh);
    ASSERT_EQ(ids.protein, ids_.protein);
  }

  fs::path dir_;
  biozon::GeneratorConfig config_;
  storage::Catalog db_;
  biozon::BiozonSchema ids_;
  std::unique_ptr<graph::DataGraphView> view_;
  std::unique_ptr<graph::SchemaGraph> schema_;
  core::TopologyStore store_;
};

TEST_F(PersistenceTest, SaveCreatesExpectedFiles) {
  ASSERT_TRUE(
      core::SaveTopologyArtifacts(db_, store_, dir_.string()).ok());
  EXPECT_TRUE(fs::exists(dir_ / "topologies.csv"));
  EXPECT_TRUE(fs::exists(dir_ / "pairs.csv"));
  EXPECT_TRUE(fs::exists(dir_ / "classes_Protein_DNA.csv"));
  EXPECT_TRUE(fs::exists(dir_ / "freq_Protein_DNA.csv"));
  EXPECT_TRUE(fs::exists(dir_ / "table_AllTops_Protein_DNA.csv"));
  EXPECT_TRUE(fs::exists(dir_ / "table_LeftTops_Protein_DNA.csv"));
  EXPECT_TRUE(fs::exists(dir_ / "table_ExcpTops_Protein_DNA.csv"));
  // Unpruned pair has no LeftTops file.
  EXPECT_TRUE(fs::exists(dir_ / "table_AllTops_Protein_Interaction.csv"));
  EXPECT_FALSE(
      fs::exists(dir_ / "table_LeftTops_Protein_Interaction.csv"));
}

TEST_F(PersistenceTest, RoundTripPreservesCatalogAndPairData) {
  ASSERT_TRUE(
      core::SaveTopologyArtifacts(db_, store_, dir_.string()).ok());

  storage::Catalog fresh;
  RebuildBaseCatalog(&fresh);
  core::TopologyStore loaded;
  ASSERT_TRUE(
      core::LoadTopologyArtifacts(&fresh, &loaded, dir_.string()).ok());

  // Catalog identical: same size, same codes per TID, same shape flags.
  ASSERT_EQ(loaded.catalog().size(), store_.catalog().size());
  for (const core::TopologyInfo& info : store_.catalog().infos()) {
    const core::TopologyInfo& got = loaded.catalog().Get(info.tid);
    EXPECT_EQ(got.code, info.code);
    EXPECT_EQ(got.num_classes, info.num_classes);
    EXPECT_EQ(got.is_path, info.is_path);
    std::set<std::string> keys_a(info.class_keys.begin(),
                                 info.class_keys.end());
    std::set<std::string> keys_b(got.class_keys.begin(),
                                 got.class_keys.end());
    EXPECT_EQ(keys_a, keys_b);
  }

  // Pair registry identical.
  const core::PairTopologyData* orig =
      store_.FindPair(ids_.protein, ids_.dna);
  const core::PairTopologyData* got =
      loaded.FindPair(ids_.protein, ids_.dna);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->pair_name, orig->pair_name);
  EXPECT_EQ(got->max_path_length, orig->max_path_length);
  EXPECT_EQ(got->freq, orig->freq);
  EXPECT_EQ(got->pruned_tids, orig->pruned_tids);
  EXPECT_EQ(got->prune_threshold, orig->prune_threshold);
  ASSERT_EQ(got->classes.size(), orig->classes.size());
  for (size_t i = 0; i < orig->classes.size(); ++i) {
    EXPECT_EQ(got->classes[i].key, orig->classes[i].key);
    EXPECT_TRUE(got->classes[i].path == orig->classes[i].path);
    EXPECT_EQ(got->classes[i].path_tid, orig->classes[i].path_tid);
  }

  // Tables identical row by row.
  for (const std::string& name :
       {orig->alltops_table, orig->pairclasses_table, orig->lefttops_table,
        orig->excptops_table}) {
    const storage::Table* a = db_.GetTable(name);
    const storage::Table* b = fresh.GetTable(name);
    ASSERT_EQ(a->num_rows(), b->num_rows()) << name;
    for (size_t r = 0; r < a->num_rows(); ++r) {
      EXPECT_EQ(a->GetRow(r), b->GetRow(r)) << name << " row " << r;
    }
  }
}

TEST_F(PersistenceTest, QueriesAgreeAfterReload) {
  ASSERT_TRUE(
      core::SaveTopologyArtifacts(db_, store_, dir_.string()).ok());

  storage::Catalog fresh;
  RebuildBaseCatalog(&fresh);
  core::TopologyStore loaded;
  ASSERT_TRUE(
      core::LoadTopologyArtifacts(&fresh, &loaded, dir_.string()).ok());
  graph::DataGraphView fresh_view(fresh);
  graph::SchemaGraph fresh_schema(fresh);

  engine::Engine original(&db_, &store_, schema_.get(), view_.get(),
                          core::ScoreModel(
                              &store_.catalog(),
                              biozon::MakeBiozonDomainKnowledge(ids_)));
  engine::Engine reloaded(&fresh, &loaded, &fresh_schema, &fresh_view,
                          core::ScoreModel(
                              &loaded.catalog(),
                              biozon::MakeBiozonDomainKnowledge(ids_)));

  engine::TopologyQuery q;
  q.entity_set1 = "Protein";
  q.pred1 = biozon::SelectivityPredicate(db_, "Protein", "medium");
  q.entity_set2 = "DNA";
  q.pred2 = biozon::SelectivityPredicate(db_, "DNA", "medium");
  q.scheme = core::RankScheme::kDomain;
  q.k = 10;

  for (MethodKind method : {MethodKind::kFullTop, MethodKind::kFastTop,
                            MethodKind::kFastTopK, MethodKind::kFastTopKEt}) {
    auto r1 = original.Execute(q, method);
    auto r2 = reloaded.Execute(q, method);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    ASSERT_EQ(r1->entries.size(), r2->entries.size())
        << engine::MethodKindToString(method);
    for (size_t i = 0; i < r1->entries.size(); ++i) {
      EXPECT_EQ(r1->entries[i].tid, r2->entries[i].tid);
      EXPECT_EQ(r1->entries[i].score, r2->entries[i].score);
    }
  }
}

TEST_F(PersistenceTest, LoadRejectsNonEmptyStore) {
  ASSERT_TRUE(
      core::SaveTopologyArtifacts(db_, store_, dir_.string()).ok());
  storage::Catalog fresh;
  RebuildBaseCatalog(&fresh);
  EXPECT_EQ(core::LoadTopologyArtifacts(&fresh, &store_, dir_.string())
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PersistenceTest, LoadFailsOnMissingDirectory) {
  storage::Catalog fresh;
  core::TopologyStore loaded;
  EXPECT_FALSE(core::LoadTopologyArtifacts(&fresh, &loaded,
                                           (dir_ / "nope").string())
                   .ok());
}

TEST_F(PersistenceTest, LoadReportsTheBadPairsFieldAndItsLine) {
  ASSERT_TRUE(
      core::SaveTopologyArtifacts(db_, store_, dir_.string()).ok());
  // Corrupt the T1 cell of the second pair record (line 3: header, then
  // one record per pair).
  const fs::path pairs = dir_ / "pairs.csv";
  std::string text;
  {
    std::ifstream is(pairs);
    std::stringstream buffer;
    buffer << is.rdbuf();
    text = buffer.str();
  }
  size_t line_start = 0;
  for (int line = 1; line < 3; ++line) {
    line_start = text.find('\n', line_start) + 1;
    ASSERT_NE(line_start, 0u) << "pairs.csv has fewer than 3 lines";
  }
  const size_t comma = text.find(',', line_start);
  ASSERT_NE(comma, std::string::npos);
  text.replace(line_start, comma - line_start, "T1x");
  {
    std::ofstream os(pairs, std::ios::trunc);
    os << text;
  }

  storage::Catalog fresh;
  RebuildBaseCatalog(&fresh);
  core::TopologyStore loaded;
  const Status status =
      core::LoadTopologyArtifacts(&fresh, &loaded, dir_.string());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("line 3: 'T1x' is not an INT64"),
            std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace tsb
