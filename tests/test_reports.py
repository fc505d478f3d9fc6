from levquant.adjustment import AdjustmentResult
from levquant.reports import render_speed_table


def test_speed_table_marks_missing_and_out_of_range_cells():
    result = AdjustmentResult(
        theta=0.5, leverage="book", lag_coefficient=1.25, speed=-0.25,
        pseudo_r2=0.4, n_used=10, out_of_range=True,
    )
    text = render_speed_table({"book": [result]}, (0.25, 0.5))
    assert text.splitlines()[2:] == [
        "SPEED BOOK               NA  -25.0% !",
        "R-squared                NA     40.0%",
        "! lag coefficient outside [0, 1]; speed reported unclipped",
    ]
