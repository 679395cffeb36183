"""Unit tests for the gut taxonomy model."""

from repro.simulate import taxonomy


class TestTaxonomy:
    def test_ten_genera(self):
        assert len(taxonomy.GUT_GENERA) == 10

    def test_three_phyla(self):
        assert taxonomy.phyla() == ["Firmicutes", "Bacteroidetes", "Proteobacteria"]

    def test_paper_assignments(self):
        # Assignments called out explicitly in the paper's Fig. 7 text.
        assert taxonomy.PHYLUM_OF["Roseburia"] == "Firmicutes"
        assert taxonomy.PHYLUM_OF["Clostridium"] == "Firmicutes"
        assert taxonomy.PHYLUM_OF["Eubacterium"] == "Firmicutes"
        assert taxonomy.PHYLUM_OF["Bacteroides"] == "Bacteroidetes"
        assert taxonomy.PHYLUM_OF["Escherichia"] == "Proteobacteria"

    def test_genera_unique(self):
        genera = [t.genus for t in taxonomy.GUT_GENERA]
        assert len(set(genera)) == len(genera)
