//! Output checks. Each returns `Err` with the reason on a wrong output;
//! a failed check fails the run.

use timekd_data::ForecastWindow;
use timekd_obs::json::Json;

/// `train`: the test MSE is finite and beats the all-zeros forecast, which
/// on standardized windows is the mean forecast.
pub fn trained_mse(test_mse: f32, zero_mse: f32) -> Result<(), String> {
    if !test_mse.is_finite() {
        return Err(format!("test MSE is not finite: {test_mse}"));
    }
    if test_mse >= zero_mse {
        return Err(format!(
            "test MSE {test_mse} does not beat the all-zeros forecast ({zero_mse})"
        ));
    }
    Ok(())
}

/// MSE of the all-zeros forecast over `windows`' targets, accumulated the
/// way `Forecaster::evaluate` accumulates its MSE.
pub fn zero_forecast_mse(windows: &[ForecastWindow]) -> f32 {
    let mut sum = 0.0f64;
    let mut count = 0usize;
    for w in windows {
        let y = w.y.to_vec();
        sum += y.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>();
        count += y.len();
    }
    (sum / count.max(1) as f64) as f32
}

/// `predict` and `serve`: `got` equals `want` bit for bit.
pub fn bitwise(got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} values, expected {}", got.len(), want.len()));
    }
    match got
        .iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
    {
        Some(i) => Err(format!(
            "value {i} is {} ({:#010x}), expected {} ({:#010x})",
            got[i],
            got[i].to_bits(),
            want[i],
            want[i].to_bits()
        )),
        None => Ok(()),
    }
}

/// `serve`: a `/forecast` response body carries `want` bit for bit as a
/// `[horizon][num_vars]` row array.
///
/// JSON has no negative zero: a served `-0.0` reads back as `0`, so zeros
/// compare by value.
pub fn forecast_body(body: &str, want: &[f32]) -> Result<(), String> {
    let doc = Json::parse(body).map_err(|e| format!("response is not JSON: {e}"))?;
    let rows = doc
        .get("forecast")
        .and_then(Json::as_arr)
        .ok_or("response has no `forecast` rows")?;
    let mut got = Vec::with_capacity(want.len());
    for row in rows {
        let cells = row.as_arr().ok_or("a forecast row is not an array")?;
        for cell in cells {
            let v = cell.as_num().ok_or("a forecast value is not a number")? as f32;
            got.push(v);
        }
    }
    let want: Vec<f32> = want
        .iter()
        .map(|&w| if w == 0.0 { 0.0 } else { w })
        .collect();
    bitwise(&got, &want)
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekd_tensor::Tensor;

    fn flip_low_bit(v: f32) -> f32 {
        f32::from_bits(v.to_bits() ^ 1)
    }

    fn body(values: &[f32], num_vars: usize) -> String {
        let rows: Vec<Json> = values
            .chunks(num_vars)
            .map(|r| Json::Arr(r.iter().map(|&v| Json::num(f64::from(v))).collect()))
            .collect();
        Json::obj(vec![
            ("version", Json::num(1.0)),
            ("forecast", Json::Arr(rows)),
        ])
        .render()
    }

    #[test]
    fn mse_check_rejects_nan_and_no_skill() {
        assert!(trained_mse(0.5, 1.0).is_ok());
        assert!(trained_mse(f32::NAN, 1.0).is_err());
        assert!(trained_mse(f32::INFINITY, 1.0).is_err());
        assert!(trained_mse(1.0, 1.0).is_err());
    }

    #[test]
    fn zero_forecast_mse_is_mean_square_target() {
        let w = ForecastWindow {
            x: Tensor::from_vec(vec![0.0; 2], [1, 2]),
            y: Tensor::from_vec(vec![1.0, -3.0], [1, 2]),
            index: 0,
        };
        assert_eq!(zero_forecast_mse(&[w]), 5.0);
    }

    #[test]
    fn bitwise_check_rejects_one_flipped_bit() {
        let want = [0.25f32, -1.5, 3.0e-7];
        assert!(bitwise(&want, &want).is_ok());
        let mut got = want;
        got[2] = flip_low_bit(got[2]);
        assert!(bitwise(&got, &want).unwrap_err().starts_with("value 2"));
        assert!(bitwise(&want[..2], &want).is_err());
    }

    #[test]
    fn forecast_body_check_rejects_one_flipped_bit() {
        let want = [0.1f32, -2.75, 1.0e-3, 7.0, 0.0, -0.0];
        assert!(forecast_body(&body(&want, 2), &want).is_ok());
        let mut served = want;
        served[1] = flip_low_bit(served[1]);
        assert!(forecast_body(&body(&served, 2), &want).is_err());
        assert!(forecast_body(&body(&want[..4], 2), &want).is_err());
        assert!(forecast_body("{\"error\":\"x\"}", &want).is_err());
        assert!(forecast_body("not json", &want).is_err());
    }
}
