#include "workloads/case_studies.h"

#include <unordered_map>

#include "datagen/cohorts.h"
#include "workloads/benchmark_query.h"

namespace squid {

Result<CaseStudy> FunnyActorsCaseStudy(const Database& imdb,
                                       const ImdbManifest& manifest) {
  CaseStudy cs;
  cs.id = "CS1";
  cs.description = "Funny actors (comedy-heavy portfolios)";
  cs.entity_relation = "person";
  cs.projection_attr = "name";
  cs.use_normalized_association = true;

  std::vector<std::string> names;
  std::vector<double> scores;
  SQUID_RETURN_NOT_OK(PersonPopularity(imdb, &names, &scores));

  // Popularity of the cohort members.
  std::vector<double> cohort_pop;
  for (const std::string& member : manifest.funny_actor_names) {
    double pop = 0;
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == member) {
        pop = scores[i];
        break;
      }
    }
    cohort_pop.push_back(pop);
  }
  CohortListOptions opts;
  opts.list_size = 200;
  opts.seed = 101;
  CohortList list =
      BuildCohortList(manifest.funny_actor_names, cohort_pop, names, opts);
  cs.list = std::move(list.names);
  cs.popularity_mask = std::move(list.popularity_mask);
  return cs;
}

Result<CaseStudy> SciFi2000sCaseStudy(const Database& imdb) {
  CaseStudy cs;
  cs.id = "CS2";
  cs.description = "2000s Sci-Fi movies";
  cs.entity_relation = "movie";
  cs.projection_attr = "title";

  // Compute the cohort from the data: the distinct (ProjectBlock) titles of
  // Sci-Fi movies released 2000-2009.
  SelectQuery b = ProjectBlock("movie", "movie", "title");
  AddFactJoin(&b, "movie", "id", "movietogenre", "mg", "movie_id", "genre_id",
              "genre", "genre", "id");
  b.where.push_back(
      Predicate::Compare({"genre", "name"}, CompareOp::kEq, Value("SciFi")));
  b.where.push_back(Predicate::Between({"movie", "year"},
                                       Value(static_cast<int64_t>(2000)),
                                       Value(static_cast<int64_t>(2009))));
  SQUID_ASSIGN_OR_RETURN(ResultSet rs, ExecuteQuery(imdb, Query::Single(b)));
  std::vector<std::string> cohort;
  for (const Value& v : rs.ColumnValues(0)) cohort.push_back(v.ToString());

  // Popularity: movie rating (public lists skew to well-rated films).
  SQUID_ASSIGN_OR_RETURN(const Table* movie, imdb.GetTable("movie"));
  SQUID_ASSIGN_OR_RETURN(const Column* title, movie->ColumnByName("title"));
  SQUID_ASSIGN_OR_RETURN(const Column* rating, movie->ColumnByName("rating"));
  std::vector<double> cohort_pop(cohort.size(), 0);
  std::vector<std::string> universe;
  universe.reserve(movie->num_rows());
  for (size_t r = 0; r < movie->num_rows(); ++r) {
    if (title->IsNull(r)) continue;
    universe.emplace_back(title->StringAt(r));
    for (size_t i = 0; i < cohort.size(); ++i) {
      if (cohort[i] == title->StringAt(r)) {
        cohort_pop[i] = rating->IsNull(r) ? 0 : rating->DoubleAt(r);
      }
    }
  }
  CohortListOptions opts;
  opts.list_size = 165;
  opts.seed = 102;
  CohortList list = BuildCohortList(cohort, cohort_pop, universe, opts);
  cs.list = std::move(list.names);
  cs.popularity_mask = std::move(list.popularity_mask);
  return cs;
}

Result<CaseStudy> ProlificResearchersCaseStudy(const Database& dblp,
                                               const DblpManifest& manifest) {
  CaseStudy cs;
  cs.id = "CS3";
  cs.description = "Prolific database researchers";
  cs.entity_relation = "author";
  cs.projection_attr = "name";

  // Popularity of cohort members: publication counts.
  SQUID_ASSIGN_OR_RETURN(const Table* author, dblp.GetTable("author"));
  SQUID_ASSIGN_OR_RETURN(const Table* writes, dblp.GetTable("writes"));
  SQUID_ASSIGN_OR_RETURN(const Column* aid, author->ColumnByName("id"));
  SQUID_ASSIGN_OR_RETURN(const Column* aname, author->ColumnByName("name"));
  SQUID_ASSIGN_OR_RETURN(const Column* wid, writes->ColumnByName("author_id"));
  std::unordered_map<int64_t, double> pubs;
  for (size_t r = 0; r < writes->num_rows(); ++r) {
    if (!wid->IsNull(r)) pubs[wid->Int64At(r)] += 1;
  }
  std::vector<std::string> universe;
  std::unordered_map<std::string, double> pop_by_name;
  for (size_t r = 0; r < author->num_rows(); ++r) {
    if (aid->IsNull(r) || aname->IsNull(r)) continue;
    universe.emplace_back(aname->StringAt(r));
    auto it = pubs.find(aid->Int64At(r));
    pop_by_name[std::string(aname->StringAt(r))] = it == pubs.end() ? 0 : it->second;
  }
  std::vector<double> cohort_pop;
  for (const std::string& member : manifest.prolific_authors) {
    cohort_pop.push_back(pop_by_name.count(member) ? pop_by_name[member] : 0);
  }
  CohortListOptions opts;
  opts.list_size = 30;
  opts.noise_fraction = 0.0;  // the paper takes the top-30 service list as is
  opts.seed = 103;
  CohortList list =
      BuildCohortList(manifest.prolific_authors, cohort_pop, universe, opts);
  cs.list = std::move(list.names);
  cs.popularity_mask = std::move(list.popularity_mask);
  return cs;
}

}  // namespace squid
