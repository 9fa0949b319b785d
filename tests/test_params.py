"""Unit tests for configuration dataclasses and factory functions."""

import pytest

from repro.uarch.params import (DRAMConfig, EMCConfig, SystemConfig,
                                eight_core_config, quad_core_config,
                                with_dram_geometry)


def test_quad_core_defaults_match_table1():
    cfg = quad_core_config()
    assert cfg.num_cores == 4
    assert cfg.num_mcs == 1
    assert cfg.core.rob_entries == 256
    assert cfg.core.rs_entries == 92
    assert cfg.core.issue_width == 4
    assert cfg.l1.size_bytes == 32 * 1024
    assert cfg.llc.slice_bytes == 1024 * 1024
    assert cfg.llc.latency == 18
    assert cfg.dram.channels == 2
    assert cfg.dram.banks_per_rank == 8
    assert cfg.dram.queue_entries == 128
    assert cfg.emc.num_contexts == 2
    assert cfg.emc.uop_buffer_entries == 16
    assert cfg.emc.prf_entries == 16
    assert cfg.emc.data_cache_bytes == 4096
    assert cfg.emc.tlb_entries_per_core == 32


def test_eight_core_scaling():
    cfg = eight_core_config()
    assert cfg.num_cores == 8
    assert cfg.dram.channels == 4
    assert cfg.dram.queue_entries == 256
    assert cfg.emc.num_contexts == 4


def test_eight_core_dual_mc():
    cfg = eight_core_config(num_mcs=2)
    assert cfg.num_mcs == 2
    assert cfg.emc.num_contexts == 2   # per EMC


def test_emc_flag_controls_enable():
    assert quad_core_config(emc=True).emc.enabled
    assert not quad_core_config(emc=False).emc.enabled


def test_prefetcher_name_stored():
    assert quad_core_config(prefetcher="markov+stream").prefetch.kind \
        == "markov+stream"


def test_with_dram_geometry_scales_queue():
    base = quad_core_config()
    wide = with_dram_geometry(base, channels=4, ranks=4)
    assert wide.dram.channels == 4
    assert wide.dram.ranks_per_channel == 4
    assert wide.dram.queue_entries > base.dram.queue_entries
    # The original is untouched.
    assert base.dram.channels == 2


def test_validate_rejects_bad_configs():
    with pytest.raises(ValueError):
        SystemConfig(num_cores=0).validate()
    with pytest.raises(ValueError):
        SystemConfig(num_mcs=3).validate()
    cfg = SystemConfig(num_mcs=2, dram=DRAMConfig(channels=3))
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = SystemConfig(emc=EMCConfig(max_chain_uops=32,
                                     uop_buffer_entries=16))
    with pytest.raises(ValueError):
        cfg.validate()


def test_dram_total_banks():
    cfg = DRAMConfig(channels=2, ranks_per_channel=2, banks_per_rank=8)
    assert cfg.total_banks == 32
