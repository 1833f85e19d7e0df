#include "datagen/dblp_generator.h"

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_set>

#include "common/rng.h"
#include "common/strings.h"
#include "datagen/emit_util.h"

namespace squid {

namespace {

const char* kVenues[] = {"CONF-DB-A",  "CONF-DB-B",  "CONF-DB-C",  "CONF-ML-A",
                         "CONF-ML-B",  "CONF-SYS-A", "CONF-SYS-B", "CONF-NET-A",
                         "CONF-PL-A",  "CONF-HCI-A", "CONF-SEC-A", "CONF-TH-A",
                         "CONF-IR-A",  "CONF-VIS-A", "CONF-ARCH-A", "CONF-OS-A",
                         "CONF-DM-A",  "CONF-DM-B",  "CONF-WEB-A", "CONF-BIO-A"};
const char* kAreas[] = {"Databases", "Machine Learning", "Systems", "Networks",
                        "Theory",    "Security",         "HCI",     "Visualization"};
// Venue index -> area index.
const size_t kVenueArea[] = {0, 0, 0, 1, 1, 2, 2, 3, 4, 6,
                             5, 4, 1, 7, 2, 2, 0, 0, 0, 1};
const char* kCountries[] = {"USA",       "Canada",    "UK",       "Germany",
                            "France",    "China",     "India",    "Japan",
                            "Brazil",    "Italy",     "Spain",    "Australia",
                            "Netherlands", "Switzerland", "Israel", "Singapore",
                            "South Korea", "Sweden",  "Poland",   "Greece"};
const char* kSeries[] = {"ACM Series", "IEEE Series", "Springer Series",
                         "USENIX Series", "Open Proceedings"};
const char* kAwards[] = {"Best Paper", "Test of Time", "Distinguished Reviewer",
                         "Early Career", "Dissertation Award"};

const char* kFirstNames[] = {"Amara", "Bodhi", "Calla", "Dario", "Esme",  "Faro",
                             "Gala",  "Hiro",  "Iris",  "Joren", "Kaia",  "Lior",
                             "Mira",  "Nils",  "Odile", "Pax",   "Rhea",  "Soren",
                             "Tala",  "Ugo",   "Vera",  "Wim",   "Yuna",  "Zane"};
const char* kLastNames[] = {"Albrecht", "Brennan",   "Castell", "Dvorak",
                            "Eklund",   "Ferrar",    "Galloway", "Hartman",
                            "Ibarra",   "Jansen",    "Kovac",    "Lindqvist",
                            "Moreau",   "Nakata",    "Olsen",    "Petrov",
                            "Quint",    "Rossi",     "Sandoval", "Tanaka",
                            "Urbina",   "Vogel",     "Winter",   "Ximenez",
                            "Young",    "Zhao"};
const char* kTitleWordsA[] = {"Scalable",  "Adaptive", "Robust",     "Efficient",
                              "Learned",   "Parallel", "Streaming",  "Approximate",
                              "Federated", "Secure"};
const char* kTitleWordsB[] = {"Query Processing",       "Index Structures",
                              "Join Algorithms",        "Data Cleaning",
                              "Graph Analytics",        "Model Training",
                              "Transaction Protocols",  "Schema Matching",
                              "Cardinality Estimation", "View Maintenance"};

Schema DimensionSchema(const std::string& name) {
  Schema s(name, {{"id", ValueType::kInt64}, {"name", ValueType::kString}});
  s.set_primary_key("id");
  s.AddPropertyAttribute("name");
  s.AddTextSearchAttribute("name");
  return s;
}

struct AuthorRow {
  int64_t id = 0;
  std::string name;
  int64_t affiliation_id = 1;
};
struct PubRow {
  int64_t id = 0;
  std::string title;
  int64_t year = 2008;
  int64_t venue_id = 1;
  std::vector<int64_t> authors;
  std::vector<size_t> keywords;
};

}  // namespace

Result<DblpData> GenerateDblp(const DblpOptions& options) {
  Rng rng(options.seed);
  DblpData out;
  out.db = std::make_unique<Database>("dblp");
  Database* db = out.db.get();
  DblpManifest& manifest = out.manifest;
  manifest.venue_sigmod = kVenues[0];
  manifest.venue_vldb = kVenues[1];
  manifest.lab_a = "University of Cascadia";
  manifest.lab_b = "Northlight Research Lab";

  const size_t num_authors =
      std::max<size_t>(300, static_cast<size_t>(options.num_authors * options.scale));
  // The planted structures below claim publications from the back of the
  // organic ones: up to 2 x 18 per prolific author (DQ2), 15 for the trio
  // (DQ4) and 12 per lab collaborator (DQ1). Small scales generate at least
  // that many, so the claims always fit.
  const size_t prolific_cohort = std::max<size_t>(20, num_authors / 75);
  const size_t lab_cohort = std::max<size_t>(15, num_authors / 100);
  const size_t planted_pubs = prolific_cohort * 2 * 18 + 15 + lab_cohort * 12;
  const size_t num_pubs = std::max<size_t>(
      {600, planted_pubs,
       static_cast<size_t>(options.num_publications * options.scale)});
  const size_t num_affiliations = std::max<size_t>(
      20, static_cast<size_t>(options.num_affiliations * options.scale));
  const size_t num_keywords = 150;

  // ---- Authors. ----
  std::vector<AuthorRow> authors;
  authors.reserve(num_authors);
  std::unordered_set<std::string> used;
  for (size_t i = 0; i < num_authors; ++i) {
    AuthorRow a;
    a.id = static_cast<int64_t>(i + 1);
    for (int attempt = 0; attempt < 64 && a.name.empty(); ++attempt) {
      std::string name =
          std::string(kFirstNames[rng.UniformInt(0, std::size(kFirstNames) - 1)]) +
          " " + kLastNames[rng.UniformInt(0, std::size(kLastNames) - 1)];
      if (!used.count(name)) {
        a.name = name;
        used.insert(name);
      }
    }
    if (a.name.empty()) {
      a.name = StrFormat("Author %05zu", i);
      used.insert(a.name);
    }
    // Organic affiliations exclude the last two ids, which are reserved for
    // the DQ1 labs (planted membership only).
    a.affiliation_id = static_cast<int64_t>(rng.Zipf(num_affiliations - 2, 1.0) + 1);
    authors.push_back(std::move(a));
  }

  // ---- Publications (venue Zipf; years 2000-2015 as in the paper). ----
  std::vector<PubRow> pubs;
  pubs.reserve(num_pubs);
  for (size_t i = 0; i < num_pubs; ++i) {
    PubRow p;
    p.id = static_cast<int64_t>(i + 1);
    p.title = StrFormat(
        "%s %s (no. %zu)",
        kTitleWordsA[rng.UniformInt(0, std::size(kTitleWordsA) - 1)],
        kTitleWordsB[rng.UniformInt(0, std::size(kTitleWordsB) - 1)], i + 1);
    p.year = 2000 + rng.UniformInt(0, 15);
    p.venue_id = static_cast<int64_t>(rng.Zipf(std::size(kVenues), 0.9) + 1);
    size_t nauthors =
        1 + static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(options.avg_authors_per_pub * 2.0 - 1.0)));
    std::set<int64_t> chosen;
    while (chosen.size() < nauthors) {
      chosen.insert(static_cast<int64_t>(rng.Zipf(num_authors, 0.9) + 1));
    }
    p.authors.assign(chosen.begin(), chosen.end());
    size_t nkw = 2 + static_cast<size_t>(rng.UniformInt(0, 2));
    std::set<size_t> kws;
    while (kws.size() < nkw) kws.insert(rng.Zipf(num_keywords, 0.8));
    p.keywords.assign(kws.begin(), kws.end());
    pubs.push_back(std::move(p));
  }

  // ---- Planted structures. ----
  size_t next_author = num_authors - 1;
  size_t next_pub = num_pubs - 1;

  // DQ2 + Fig. 13(c): prolific DB authors with >= 10 publications at each
  // flagship venue.
  {
    for (size_t k = 0; k < prolific_cohort; ++k) {
      AuthorRow& a = authors[next_author--];
      manifest.prolific_authors.push_back(a.name);
      for (int64_t v = 1; v <= 2; ++v) {
        size_t npubs = 10 + static_cast<size_t>(rng.UniformInt(0, 8));
        for (size_t i = 0; i < npubs; ++i) {
          PubRow& p = pubs[next_pub--];
          p.venue_id = v;
          p.authors = {a.id};
          size_t extra = 1 + static_cast<size_t>(rng.UniformInt(0, 1));
          for (size_t e = 0; e < extra; ++e) {
            int64_t co = static_cast<int64_t>(rng.Zipf(num_authors, 0.9) + 1);
            if (co != a.id) p.authors.push_back(co);
          }
        }
      }
    }
  }

  // DQ4: a trio that repeatedly publishes together.
  {
    const char* names[3] = {"Wei Changfa", "Xiomara Yanel", "Pieter Ysbrand"};
    std::vector<int64_t> trio_ids;
    for (const char* n : names) {
      AuthorRow& a = authors[next_author--];
      a.name = n;
      manifest.trio.push_back(a.name);
      trio_ids.push_back(a.id);
    }
    for (size_t i = 0; i < 15; ++i) {
      PubRow& p = pubs[next_pub--];
      p.authors.assign(trio_ids.begin(), trio_ids.end());
      p.venue_id = rng.UniformInt(1, 3);
    }
  }

  // DQ1: authors who collaborate with both named labs. The labs sit at the
  // tail of the affiliation Zipf (random assignment essentially never picks
  // them), so lab membership and collaborations are planted explicitly and
  // the query's cohort is well-defined.
  const int64_t lab_a_id = static_cast<int64_t>(num_affiliations - 1);
  const int64_t lab_b_id = static_cast<int64_t>(num_affiliations);
  {
    std::vector<int64_t> lab_a_members, lab_b_members;
    for (int i = 0; i < 8; ++i) {
      AuthorRow& a = authors[next_author--];
      a.affiliation_id = lab_a_id;
      lab_a_members.push_back(a.id);
      AuthorRow& b = authors[next_author--];
      b.affiliation_id = lab_b_id;
      lab_b_members.push_back(b.id);
    }
    for (size_t k = 0; k < lab_cohort; ++k) {
      AuthorRow& a = authors[next_author--];
      for (int i = 0; i < 6; ++i) {
        PubRow& p1 = pubs[next_pub--];
        p1.authors = {a.id,
                      lab_a_members[static_cast<size_t>(rng.UniformInt(
                          0, static_cast<int64_t>(lab_a_members.size()) - 1))]};
        PubRow& p2 = pubs[next_pub--];
        p2.authors = {a.id,
                      lab_b_members[static_cast<size_t>(rng.UniformInt(
                          0, static_cast<int64_t>(lab_b_members.size()) - 1))]};
      }
    }
  }

  // ---- Stage the remaining emission inputs (serial; keeps the rng draw
  // sequence identical to the historical serial generator, which drew these
  // during emission in exactly this order). ----
  struct AffiliationRow {
    std::string name;
    int64_t country_id;
  };
  std::vector<AffiliationRow> affiliations;
  affiliations.reserve(num_affiliations);
  for (size_t i = 0; i < num_affiliations; ++i) {
    std::string name;
    if (i + 2 == num_affiliations) name = manifest.lab_a;
    else if (i + 1 == num_affiliations) name = manifest.lab_b;
    else name = StrFormat("Institute %03zu", i);
    // Lab A is in the USA, lab B in Canada (drives DQ5 overlaps).
    int64_t country =
        i + 2 == num_affiliations ? 1
        : i + 1 == num_affiliations
            ? 2
            : static_cast<int64_t>(rng.Zipf(std::size(kCountries), 1.0) + 1);
    affiliations.push_back({std::move(name), country});
  }

  struct CitationRow {
    int64_t pub_id;
    int64_t cited_pub_id;
  };
  std::vector<CitationRow> citations;
  for (const PubRow& p : pubs) {
    size_t ncites = static_cast<size_t>(rng.UniformInt(0, 6));
    std::set<int64_t> cited;
    for (size_t i = 0; i < ncites; ++i) {
      int64_t c = static_cast<int64_t>(rng.Zipf(num_pubs, 1.0) + 1);
      if (c != p.id) cited.insert(c);
    }
    for (int64_t c : cited) citations.push_back({p.id, c});
  }

  struct PcRow {
    int64_t author_id;
    int64_t venue_id;
    int64_t year;
  };
  std::vector<PcRow> pc_rows;
  {
    // Prolific authors serve frequently (the Fig. 13(c) sampling frame).
    std::unordered_set<std::string> prolific(manifest.prolific_authors.begin(),
                                             manifest.prolific_authors.end());
    for (const AuthorRow& a : authors) {
      if (!prolific.count(a.name)) continue;
      for (int64_t year = 2011; year <= 2015; ++year) {
        if (rng.Bernoulli(0.7)) pc_rows.push_back({a.id, 1, year});
      }
    }
    for (size_t i = 0; i < num_authors / 10; ++i) {
      int64_t a = static_cast<int64_t>(rng.Zipf(num_authors, 0.8) + 1);
      pc_rows.push_back(
          {a, static_cast<int64_t>(rng.Zipf(std::size(kVenues), 0.9) + 1),
           2011 + rng.UniformInt(0, 4)});
    }
  }

  struct AwardRow {
    int64_t author_id;
    int64_t award_id;
  };
  std::vector<AwardRow> award_rows;
  award_rows.reserve(num_authors / 20);
  for (size_t i = 0; i < num_authors / 20; ++i) {
    int64_t a = static_cast<int64_t>(rng.Zipf(num_authors, 0.8) + 1);
    award_rows.push_back(
        {a, rng.UniformInt(1, static_cast<int64_t>(std::size(kAwards)))});
  }

  // ---- Create tables and batch-intern every string cell in canonical
  // (creation) order; then fill in parallel — see datagen/emit_util.h for
  // the determinism contract. ----
  StringPool* pool = db->pool().get();
  pool->Reserve(authors.size() + pubs.size() + affiliations.size() +
                num_keywords + 128);
  std::vector<std::function<Status()>> fillers;

  {
    Schema s("venue", {{"id", ValueType::kInt64},
                       {"name", ValueType::kString},
                       {"area_id", ValueType::kInt64},
                       {"series_id", ValueType::kInt64}});
    s.set_primary_key("id");
    s.AddPropertyAttribute("name");
    s.AddTextSearchAttribute("name");
    s.AddForeignKey({"area_id", "area", "id"});
    s.AddForeignKey({"series_id", "series", "id"});
    SQUID_ASSIGN_OR_RETURN(Table * t, db->CreateTable(std::move(s)));
    for (const char* v : kVenues) pool->Intern(v);
    fillers.push_back([t]() -> Status {
      for (size_t i = 0; i < std::size(kVenues); ++i) {
        SQUID_RETURN_NOT_OK(t->AppendRow(
            {Value(static_cast<int64_t>(i + 1)), Value(std::string(kVenues[i])),
             Value(static_cast<int64_t>(kVenueArea[i] + 1)),
             Value(static_cast<int64_t>(i % std::size(kSeries) + 1))}));
      }
      return Status::OK();
    });
  }
  auto add_dim = [&](const std::string& name, const char* const* values,
                     size_t count) -> Status {
    SQUID_ASSIGN_OR_RETURN(Table * t, db->CreateTable(DimensionSchema(name)));
    for (size_t i = 0; i < count; ++i) pool->Intern(values[i]);
    fillers.push_back([t, values, count]() -> Status {
      t->Reserve(count);
      for (size_t i = 0; i < count; ++i) {
        SQUID_RETURN_NOT_OK(t->AppendRow(
            {Value(static_cast<int64_t>(i + 1)), Value(std::string(values[i]))}));
      }
      return Status::OK();
    });
    return Status::OK();
  };
  SQUID_RETURN_NOT_OK(add_dim("area", kAreas, std::size(kAreas)));
  SQUID_RETURN_NOT_OK(add_dim("country", kCountries, std::size(kCountries)));
  SQUID_RETURN_NOT_OK(add_dim("series", kSeries, std::size(kSeries)));
  SQUID_RETURN_NOT_OK(add_dim("award", kAwards, std::size(kAwards)));
  std::vector<std::string> topic_names;
  topic_names.reserve(num_keywords);
  for (size_t i = 0; i < num_keywords; ++i) {
    topic_names.push_back(StrFormat("topic_%03zu", i));
  }
  {
    SQUID_ASSIGN_OR_RETURN(Table * t, db->CreateTable(DimensionSchema("keyword")));
    for (const std::string& name : topic_names) pool->Intern(name);
    fillers.push_back([t, &topic_names]() -> Status {
      t->Reserve(topic_names.size());
      for (size_t i = 0; i < topic_names.size(); ++i) {
        SQUID_RETURN_NOT_OK(t->AppendRow(
            {Value(static_cast<int64_t>(i + 1)), Value(topic_names[i])}));
      }
      return Status::OK();
    });
  }
  {
    Schema s("affiliation", {{"id", ValueType::kInt64},
                             {"name", ValueType::kString},
                             {"country_id", ValueType::kInt64}});
    s.set_primary_key("id");
    s.AddPropertyAttribute("name");
    s.AddTextSearchAttribute("name");
    s.AddForeignKey({"country_id", "country", "id"});
    SQUID_ASSIGN_OR_RETURN(Table * t, db->CreateTable(std::move(s)));
    for (const AffiliationRow& a : affiliations) pool->Intern(a.name);
    fillers.push_back([t, &affiliations]() -> Status {
      t->Reserve(affiliations.size());
      int64_t id = 1;
      for (const AffiliationRow& a : affiliations) {
        SQUID_RETURN_NOT_OK(
            t->AppendRow({Value(id++), Value(a.name), Value(a.country_id)}));
      }
      return Status::OK();
    });
  }

  // ---- Entities. ----
  {
    Schema s("author", {{"id", ValueType::kInt64},
                        {"name", ValueType::kString},
                        {"affiliation_id", ValueType::kInt64}});
    s.set_primary_key("id");
    s.set_entity(true);
    s.AddForeignKey({"affiliation_id", "affiliation", "id"});
    s.AddTextSearchAttribute("name");
    SQUID_ASSIGN_OR_RETURN(Table * t, db->CreateTable(std::move(s)));
    for (const AuthorRow& a : authors) pool->Intern(a.name);
    fillers.push_back([t, &authors]() -> Status {
      t->Reserve(authors.size());
      for (const AuthorRow& a : authors) {
        SQUID_RETURN_NOT_OK(
            t->AppendRow({Value(a.id), Value(a.name), Value(a.affiliation_id)}));
      }
      return Status::OK();
    });
  }
  {
    Schema s("publication", {{"id", ValueType::kInt64},
                             {"title", ValueType::kString},
                             {"year", ValueType::kInt64},
                             {"venue_id", ValueType::kInt64}});
    s.set_primary_key("id");
    s.set_entity(true);
    s.AddPropertyAttribute("year");
    s.AddForeignKey({"venue_id", "venue", "id"});
    s.AddTextSearchAttribute("title");
    SQUID_ASSIGN_OR_RETURN(Table * t, db->CreateTable(std::move(s)));
    for (const PubRow& p : pubs) pool->Intern(p.title);
    fillers.push_back([t, &pubs]() -> Status {
      t->Reserve(pubs.size());
      for (const PubRow& p : pubs) {
        SQUID_RETURN_NOT_OK(t->AppendRow(
            {Value(p.id), Value(p.title), Value(p.year), Value(p.venue_id)}));
      }
      return Status::OK();
    });
  }

  // ---- Facts. ----
  {
    Schema s("writes", {{"id", ValueType::kInt64},
                        {"author_id", ValueType::kInt64},
                        {"pub_id", ValueType::kInt64}});
    s.set_primary_key("id");
    s.AddForeignKey({"author_id", "author", "id"});
    s.AddForeignKey({"pub_id", "publication", "id"});
    SQUID_ASSIGN_OR_RETURN(Table * t, db->CreateTable(std::move(s)));
    fillers.push_back([t, &pubs]() -> Status {
      int64_t id = 1;
      for (const PubRow& p : pubs) {
        for (int64_t a : p.authors) {
          SQUID_RETURN_NOT_OK(t->AppendRow({Value(id++), Value(a), Value(p.id)}));
        }
      }
      return Status::OK();
    });
  }
  {
    Schema s("pubtokeyword", {{"id", ValueType::kInt64},
                              {"pub_id", ValueType::kInt64},
                              {"keyword_id", ValueType::kInt64}});
    s.set_primary_key("id");
    s.AddForeignKey({"pub_id", "publication", "id"});
    s.AddForeignKey({"keyword_id", "keyword", "id"});
    SQUID_ASSIGN_OR_RETURN(Table * t, db->CreateTable(std::move(s)));
    fillers.push_back([t, &pubs]() -> Status {
      int64_t id = 1;
      for (const PubRow& p : pubs) {
        for (size_t k : p.keywords) {
          SQUID_RETURN_NOT_OK(t->AppendRow(
              {Value(id++), Value(p.id), Value(static_cast<int64_t>(k + 1))}));
        }
      }
      return Status::OK();
    });
  }
  {
    Schema s("citation", {{"id", ValueType::kInt64},
                          {"pub_id", ValueType::kInt64},
                          {"cited_pub_id", ValueType::kInt64}});
    s.set_primary_key("id");
    s.AddForeignKey({"pub_id", "publication", "id"});
    s.AddForeignKey({"cited_pub_id", "publication", "id"});
    SQUID_ASSIGN_OR_RETURN(Table * t, db->CreateTable(std::move(s)));
    fillers.push_back([t, &citations]() -> Status {
      t->Reserve(citations.size());
      int64_t id = 1;
      for (const CitationRow& c : citations) {
        SQUID_RETURN_NOT_OK(t->AppendRow(
            {Value(id++), Value(c.pub_id), Value(c.cited_pub_id)}));
      }
      return Status::OK();
    });
  }
  {
    Schema s("pc_member", {{"id", ValueType::kInt64},
                           {"author_id", ValueType::kInt64},
                           {"venue_id", ValueType::kInt64},
                           {"year", ValueType::kInt64}});
    s.set_primary_key("id");
    s.AddForeignKey({"author_id", "author", "id"});
    s.AddForeignKey({"venue_id", "venue", "id"});
    SQUID_ASSIGN_OR_RETURN(Table * t, db->CreateTable(std::move(s)));
    fillers.push_back([t, &pc_rows]() -> Status {
      t->Reserve(pc_rows.size());
      int64_t id = 1;
      for (const PcRow& r : pc_rows) {
        SQUID_RETURN_NOT_OK(t->AppendRow(
            {Value(id++), Value(r.author_id), Value(r.venue_id), Value(r.year)}));
      }
      return Status::OK();
    });
  }
  {
    Schema s("authoraward", {{"id", ValueType::kInt64},
                             {"author_id", ValueType::kInt64},
                             {"award_id", ValueType::kInt64}});
    s.set_primary_key("id");
    s.AddForeignKey({"author_id", "author", "id"});
    s.AddForeignKey({"award_id", "award", "id"});
    SQUID_ASSIGN_OR_RETURN(Table * t, db->CreateTable(std::move(s)));
    fillers.push_back([t, &award_rows]() -> Status {
      t->Reserve(award_rows.size());
      int64_t id = 1;
      for (const AwardRow& r : award_rows) {
        SQUID_RETURN_NOT_OK(t->AppendRow(
            {Value(id++), Value(r.author_id), Value(r.award_id)}));
      }
      return Status::OK();
    });
  }

  // ---- Parallel fill. ----
  SQUID_RETURN_NOT_OK(FillTablesParallel(options.threads, *pool, fillers));

  return out;
}

}  // namespace squid
