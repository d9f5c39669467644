import random
from fractions import Fraction

import pytest

from filtstab import (
    DocumentParseError,
    DocumentValidationError,
    span,
)
from filtstab.fixtures import three_concurrent_lines, three_generic_lines, two_lines
from filtstab.serialize import (
    arrangement_from_doc,
    arrangement_to_doc,
    canonical_json,
    divisor_configuration_from_doc,
    divisor_configuration_to_doc,
    filtered_configuration_from_doc,
    filtered_configuration_to_doc,
    input_document,
    parse_config,
    system_data_from_doc,
    system_data_to_doc,
)
from filtstab.chern import derive_tables
from helpers import random_balanced_configuration, random_divisor_config


class TestRoundTrips:
    def test_configuration_round_trip(self):
        config, _ = three_generic_lines()
        doc = divisor_configuration_to_doc(config)
        assert divisor_configuration_from_doc(doc, "configuration") == config
        again = divisor_configuration_to_doc(
            divisor_configuration_from_doc(doc, "configuration")
        )
        assert canonical_json(doc) == canonical_json(again)

    def test_filtered_configuration_round_trip_bit_exact(self):
        _, fc = three_generic_lines()
        doc = filtered_configuration_to_doc(fc)
        parsed = filtered_configuration_from_doc(doc, "filtered_configuration")
        assert parsed == fc
        assert canonical_json(filtered_configuration_to_doc(parsed)) == canonical_json(doc)

    def test_arrangement_round_trip(self):
        arr = three_concurrent_lines()
        doc = arrangement_to_doc(arr)
        assert arrangement_from_doc(doc, "arrangement") == arr

    def test_system_data_round_trip(self):
        config, fc = two_lines()
        data = derive_tables(fc, config)
        doc = system_data_to_doc(data)
        assert system_data_from_doc(doc, "system_data") == data

    def test_random_round_trips(self):
        rng = random.Random(19)
        for _ in range(15):
            rank = rng.randint(1, 3)
            n = rng.randint(1, 4)
            config = random_divisor_config(rng, n)
            fc = random_balanced_configuration(rng, rank, n)
            document = input_document(config, fc, derive_tables(fc, config))
            parsed_config, parsed_fc, parsed_data = parse_config(document)
            assert parsed_config == config
            assert parsed_fc == fc
            assert canonical_json(
                input_document(parsed_config, parsed_fc, parsed_data)
            ) == canonical_json(document)


class TestLocatedErrors:
    def test_zero_denominator_is_parse_error_with_path(self):
        config, _ = two_lines()
        doc = divisor_configuration_to_doc(config)
        doc["components"][1]["degree"] = "1/0"
        with pytest.raises(DocumentParseError) as info:
            divisor_configuration_from_doc(doc, "configuration")
        assert info.value.path == "configuration.components[1].degree"

    def test_asymmetric_matrix_names_entry(self):
        config, _ = two_lines()
        doc = divisor_configuration_to_doc(config)
        doc["intersection"][0][1] = 2
        with pytest.raises(DocumentValidationError) as info:
            divisor_configuration_from_doc(doc, "configuration")
        assert "(0,1)" in str(info.value)

    def test_nondecreasing_weights_name_step(self):
        _, fc = two_lines()
        doc = filtered_configuration_to_doc(fc)
        doc["filtrations"][0]["steps"][1]["weight"] = "1/2"
        with pytest.raises(DocumentValidationError) as info:
            filtered_configuration_from_doc(doc, "filtered_configuration")
        assert "steps[1]" in info.value.path

    def test_missing_key(self):
        with pytest.raises(DocumentParseError) as info:
            parse_config({"not_configuration": {}})
        assert "configuration" in str(info.value)

    def test_wrong_component_count(self):
        config, fc = two_lines()
        bigger = random_divisor_config(random.Random(1), 3)
        document = input_document(bigger, fc)
        with pytest.raises(DocumentValidationError):
            parse_config(document)

    def test_non_integer_matrix_entry(self):
        config, _ = two_lines()
        doc = divisor_configuration_to_doc(config)
        doc["intersection"][0][0] = "1"
        with pytest.raises(DocumentParseError) as info:
            divisor_configuration_from_doc(doc, "configuration")
        assert info.value.path == "configuration.intersection[0][0]"

    @pytest.mark.parametrize("entry,message", [
        ("1/0", "zero denominator in rational literal: '1/0'"),
        ("x", "not a rational literal: 'x'"),
        (2, "expected a string"),
    ])
    @pytest.mark.parametrize("step", [0, 1])
    def test_basis_entry_errors_name_the_entry(self, entry, message, step):
        _, fc = two_lines()
        doc = filtered_configuration_to_doc(fc)
        doc["filtrations"][1]["steps"][step]["basis"][0][1] = entry
        with pytest.raises(DocumentParseError) as info:
            filtered_configuration_from_doc(doc, "filtered_configuration")
        path = f"filtered_configuration.filtrations[1].steps[{step}].basis[0][1]"
        assert info.value.path == path
        assert str(info.value) == f"{path}: {message}"

    def test_basis_entries_read_in_integers_keep_the_literal_grammar(self):
        _, fc = two_lines()
        doc = filtered_configuration_to_doc(fc)
        doc["filtrations"][0]["steps"][0]["basis"] = [[" 1/2 ", "\t-2/3\n"]]
        parsed = filtered_configuration_from_doc(doc, "filtered_configuration")
        assert parsed.filtrations[0].spaces()[0] == span([(Fraction(1, 2), Fraction(-2, 3))], 2)
        assert parsed.filtrations[0].spaces()[0].basis == ((3, -4),)
