"""The extended CLI commands."""

from repro.cli import main


class TestExtendedCLI:
    def test_rack_command(self, capsys):
        assert main(["rack", "--bays", "3", "--distance", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "stalled bays: [0, 1, 2]" in out
        assert "STALLED" in out

    def test_rack_command_metal(self, capsys):
        assert main(["rack", "--bays", "2", "--distance", "0.2", "--metal"]) == 0
        out = capsys.readouterr().out
        assert "metal container" in out
        assert "healthy" in out

    def test_smart_command(self, capsys):
        assert main(["smart", "--runtime", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "Seek_Error_Rate" in out
        assert "acoustic fingerprint: YES" in out

    def test_smart_command_quiet_far_away(self, capsys):
        assert main(["smart", "--distance", "0.25", "--runtime", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "acoustic fingerprint: no" in out
