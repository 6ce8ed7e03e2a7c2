#include "datagen/generators.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

namespace progres {

namespace {

// Builds `size` distinct pronounceable words (2-4 consonant-vowel syllables,
// optionally closed by a consonant). Deterministic given the rng state.
std::vector<std::string> BuildVocabulary(int size, Rng* rng) {
  constexpr char kConsonants[] = "bcdfghjklmnpqrstvwz";
  constexpr char kVowels[] = "aeiou";
  std::unordered_set<std::string> seen;
  std::vector<std::string> vocabulary;
  vocabulary.reserve(static_cast<size_t>(size));
  while (static_cast<int>(vocabulary.size()) < size) {
    std::string word;
    const int syllables = static_cast<int>(2 + rng->UniformU64(3));
    for (int s = 0; s < syllables; ++s) {
      word.push_back(kConsonants[rng->UniformU64(19)]);
      word.push_back(kVowels[rng->UniformU64(5)]);
    }
    if (rng->Bernoulli(0.3)) word.push_back(kConsonants[rng->UniformU64(19)]);
    if (seen.insert(word).second) vocabulary.push_back(std::move(word));
  }
  return vocabulary;
}

// Draws `count` words: the first from `first_word`, a Zipf over the
// vocabulary (to induce skewed prefix blocks), the rest uniformly. With
// `mega_fraction` > 0 the first word is pinned to the vocabulary head word
// with that probability (the mega-block skew profile); the extra Bernoulli
// draw only happens when the knob is on, so the default draw sequence is
// unchanged.
std::string MakePhrase(const std::vector<std::string>& vocabulary,
                       const ZipfTable& first_word, int count, Rng* rng,
                       double mega_fraction = 0.0) {
  std::string phrase;
  for (int i = 0; i < count; ++i) {
    if (i > 0) phrase.push_back(' ');
    size_t w;
    if (i > 0) {
      w = rng->UniformU64(vocabulary.size());
    } else if (mega_fraction > 0.0 && rng->Bernoulli(mega_fraction)) {
      w = 0;
    } else {
      w = static_cast<size_t>(first_word.Sample(rng));
    }
    phrase += vocabulary[w];
  }
  return phrase;
}

std::string NumberString(Rng* rng, int64_t lo, int64_t hi) {
  return std::to_string(rng->UniformInt(lo, hi));
}

// The Zipf distributions a generator samples, each built once per call:
// the first word of a venue or publisher phrase (exponent 1), the first
// word of every other phrase, and a duplicate cluster's size beyond 2.
struct ZipfTables {
  ZipfTables(int64_t vocabulary_size, double first_word_zipf,
             int max_cluster_size, double cluster_zipf)
      : pool_word(vocabulary_size, 1.0),
        first_word(vocabulary_size, first_word_zipf),
        cluster_surplus(std::max(1, max_cluster_size - 1), cluster_zipf) {}

  ZipfTable pool_word;
  ZipfTable first_word;
  ZipfTable cluster_surplus;
};

// Decides a duplicate-cluster size: 1 with probability 1 - duplicate_share,
// otherwise 2 plus a Zipf-skewed surplus.
int DrawClusterSize(double duplicate_share, const ZipfTable& surplus,
                    Rng* rng) {
  if (!rng->Bernoulli(duplicate_share)) return 1;
  return 2 + static_cast<int>(surplus.Sample(rng));
}

struct PendingEntity {
  std::vector<std::string> attributes;
  int32_t cluster = 0;
};

// Shuffles and materializes pending entities into a labeled dataset.
LabeledDataset Materialize(std::vector<std::string> schema,
                           std::vector<PendingEntity> pending, Rng* rng) {
  for (size_t i = pending.size(); i > 1; --i) {
    const size_t j = rng->UniformU64(i);
    std::swap(pending[i - 1], pending[j]);
  }
  LabeledDataset out;
  out.dataset = Dataset(std::move(schema));
  std::vector<int32_t> cluster_of;
  cluster_of.reserve(pending.size());
  for (PendingEntity& e : pending) {
    out.dataset.Add(std::move(e.attributes));
    cluster_of.push_back(e.cluster);
  }
  out.truth = GroundTruth(std::move(cluster_of));
  return out;
}

// Streams the publication workload into `sink` in generation order using
// `rng`, which must already be seeded. Both the batch and the streaming
// entry points run exactly this draw sequence, so they see the same
// entities; the batch path just shuffles afterwards.
void GeneratePublicationsInto(const PublicationConfig& config, Rng* rng,
                              const EntitySink& sink) {
  const std::vector<std::string> vocabulary =
      BuildVocabulary(config.vocabulary_size, rng);
  const ZipfTables zipf(static_cast<int64_t>(vocabulary.size()),
                        config.first_word_zipf, config.max_cluster_size,
                        config.cluster_zipf);
  std::vector<std::string> venues;
  venues.reserve(static_cast<size_t>(config.num_venues));
  for (int i = 0; i < config.num_venues; ++i) {
    venues.push_back(MakePhrase(vocabulary, zipf.pool_word, 2, rng) +
                     " conference");
  }

  // The share of base records that receive duplicates, chosen so that
  // roughly duplicate_fraction of *entities* live in multi-entity clusters.
  int64_t produced = 0;
  int32_t cluster = 0;
  while (produced < config.num_entities) {
    std::vector<std::string> base(3);
    base[kPubTitle] =
        MakePhrase(vocabulary, zipf.first_word,
                   static_cast<int>(4 + rng->UniformU64(4)), rng,
                   config.mega_block_fraction);
    base[kPubAbstract] =
        MakePhrase(vocabulary, zipf.first_word,
                   static_cast<int>(15 + rng->UniformU64(16)), rng);
    base[kPubVenue] = venues[rng->UniformU64(venues.size())];

    const int k = DrawClusterSize(config.duplicate_fraction / 2.0,
                                  zipf.cluster_surplus, rng);
    sink(base, cluster);
    ++produced;
    for (int c = 1; c < k && produced < config.num_entities; ++c) {
      std::vector<std::string> copy(3);
      for (size_t a = 0; a < base.size(); ++a) {
        copy[a] = CorruptValue(base[a], config.corruption, rng);
      }
      sink(std::move(copy), cluster);
      ++produced;
    }
    ++cluster;
  }
}

// Streaming core of the book workload; see GeneratePublicationsInto.
void GenerateBooksInto(const BookConfig& config, Rng* rng,
                       const EntitySink& sink) {
  const std::vector<std::string> vocabulary =
      BuildVocabulary(config.vocabulary_size, rng);
  const ZipfTables zipf(static_cast<int64_t>(vocabulary.size()),
                        config.first_word_zipf, config.max_cluster_size,
                        config.cluster_zipf);
  std::vector<std::string> publishers;
  publishers.reserve(static_cast<size_t>(config.num_publishers));
  for (int i = 0; i < config.num_publishers; ++i) {
    publishers.push_back(MakePhrase(vocabulary, zipf.pool_word, 1, rng) +
                         " press");
  }
  constexpr const char* kLanguages[] = {"english", "german",  "french",
                                        "spanish", "italian", "russian",
                                        "chinese", "japanese"};
  constexpr const char* kEditions[] = {"1st", "2nd", "3rd", "4th", "revised"};

  int64_t produced = 0;
  int32_t cluster = 0;
  while (produced < config.num_entities) {
    std::vector<std::string> base(8);
    base[kBookTitle] =
        MakePhrase(vocabulary, zipf.first_word,
                   static_cast<int>(3 + rng->UniformU64(4)), rng);
    base[kBookAuthors] = MakePhrase(vocabulary, zipf.first_word, 2, rng);
    base[kBookPublisher] = publishers[rng->UniformU64(publishers.size())];
    base[kBookYear] = NumberString(rng, 1950, 2020);
    base[kBookIsbn] = NumberString(rng, 1000000000000LL, 9999999999999LL);
    base[kBookPages] = NumberString(rng, 50, 1500);
    base[kBookLanguage] = kLanguages[rng->UniformU64(8)];
    base[kBookEdition] = kEditions[rng->UniformU64(5)];

    const int k = DrawClusterSize(config.duplicate_fraction / 2.0,
                                  zipf.cluster_surplus, rng);
    sink(base, cluster);
    ++produced;
    for (int c = 1; c < k && produced < config.num_entities; ++c) {
      std::vector<std::string> copy(8);
      // String attributes get edit-style corruption; numeric attributes are
      // occasionally perturbed; language/edition occasionally flip.
      copy[kBookTitle] =
          CorruptValue(base[kBookTitle], config.corruption, rng);
      copy[kBookAuthors] =
          CorruptValue(base[kBookAuthors], config.corruption, rng);
      copy[kBookPublisher] =
          CorruptValue(base[kBookPublisher], config.corruption, rng);
      copy[kBookYear] = rng->Bernoulli(0.05)
                            ? NumberString(rng, 1950, 2020)
                            : base[kBookYear];
      copy[kBookIsbn] =
          CorruptValue(base[kBookIsbn],
                       {.typo_rate = 0.005, .missing_rate = 0.05,
                        .truncate_rate = 0.0},
                       rng);
      copy[kBookPages] = rng->Bernoulli(0.05)
                             ? NumberString(rng, 50, 1500)
                             : base[kBookPages];
      copy[kBookLanguage] = rng->Bernoulli(0.02)
                                ? kLanguages[rng->UniformU64(8)]
                                : base[kBookLanguage];
      copy[kBookEdition] = rng->Bernoulli(0.05)
                               ? kEditions[rng->UniformU64(5)]
                               : base[kBookEdition];
      sink(std::move(copy), cluster);
      ++produced;
    }
    ++cluster;
  }
}

// Collects a streaming core's output for the batch entry points.
std::vector<PendingEntity> Collect(int64_t reserve,
                                   const std::function<void(
                                       const EntitySink&)>& generate) {
  std::vector<PendingEntity> pending;
  pending.reserve(static_cast<size_t>(reserve));
  generate([&pending](std::vector<std::string> attributes, int32_t cluster) {
    pending.push_back({std::move(attributes), cluster});
  });
  return pending;
}

}  // namespace

LabeledDataset GeneratePublications(const PublicationConfig& config) {
  Rng rng(config.seed);
  std::vector<PendingEntity> pending =
      Collect(config.num_entities, [&](const EntitySink& sink) {
        GeneratePublicationsInto(config, &rng, sink);
      });
  return Materialize(PublicationSchema(), std::move(pending), &rng);
}

LabeledDataset GenerateBooks(const BookConfig& config) {
  Rng rng(config.seed);
  std::vector<PendingEntity> pending =
      Collect(config.num_entities, [&](const EntitySink& sink) {
        GenerateBooksInto(config, &rng, sink);
      });
  return Materialize(BookSchema(), std::move(pending), &rng);
}

void StreamPublications(const PublicationConfig& config,
                        const EntitySink& sink) {
  Rng rng(config.seed);
  GeneratePublicationsInto(config, &rng, sink);
}

void StreamBooks(const BookConfig& config, const EntitySink& sink) {
  Rng rng(config.seed);
  GenerateBooksInto(config, &rng, sink);
}

std::vector<std::string> PublicationSchema() {
  return {"title", "abstract", "venue"};
}

std::vector<std::string> BookSchema() {
  return {"title", "authors", "publisher", "year", "isbn", "pages",
          "language", "edition"};
}

LabeledDataset GeneratePeopleToy() {
  LabeledDataset out;
  out.dataset = Dataset({"name", "state"});
  const std::vector<std::pair<std::vector<std::string>, int32_t>> rows = {
      {{"John Lopez", "HI"}, 0},      {{"John Lopez", "HI"}, 0},
      {{"John Lopez", "AZ"}, 0},      {{"Charles Andrews", "LA"}, 1},
      {{"Gharles Andrews", "LA"}, 1}, {{"Mary Gibson", "AZ"}, 2},
      {{"Chloe Matthew", "AZ"}, 3},   {{"William Martin", "AZ"}, 4},
      {{"Joey Brown", "LA"}, 5},
  };
  std::vector<int32_t> cluster_of;
  for (const auto& [attributes, cluster] : rows) {
    out.dataset.Add(attributes);
    cluster_of.push_back(cluster);
  }
  out.truth = GroundTruth(std::move(cluster_of));
  return out;
}

}  // namespace progres
