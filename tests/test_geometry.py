import numpy as np
import pytest

from keywarp.geometry import (Camera, CameraIntrinsics, DegenerateRays,
                              NonPositiveDepth, Ray, StereoRig, intersect_rays,
                              look_at_camera, point_ray_distance, project,
                              quat_from_matrix, quat_slerp, ray_through_pixel,
                              triangulate)
from oracle_utils import (brute_force_point_ray_distance,
                          brute_force_ray_midpoint, quat_rotate, quat_to_matrix,
                          random_camera)

SIMPLE_INTR = CameraIntrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0,
                               width=100, height=100)
IDENTITY_CAM = Camera(intrinsics=SIMPLE_INTR, position=np.zeros(3),
                      rotation=np.array([1.0, 0.0, 0.0, 0.0]))


def test_project_principal_point():
    assert np.allclose(project(IDENTITY_CAM, [0.0, 0.0, 1.0]), [50.0, 50.0])


def test_project_off_axis():
    assert np.allclose(project(IDENTITY_CAM, [0.1, 0.0, 1.0]), [60.0, 50.0])


def test_project_behind_camera_raises():
    with pytest.raises(NonPositiveDepth):
        project(IDENTITY_CAM, [0.0, 0.0, -0.5])
    with pytest.raises(NonPositiveDepth):
        project(IDENTITY_CAM, [0.0, 0.0, 0.0])


def test_ray_through_principal_pixel():
    ray = ray_through_pixel(IDENTITY_CAM, [50.0, 50.0])
    assert np.allclose(ray.origin, 0.0)
    assert np.allclose(ray.direction, [0.0, 0.0, 1.0])


def test_ray_is_inverse_of_projection():
    ray = ray_through_pixel(IDENTITY_CAM, [60.0, 50.0])
    expected = np.array([0.1, 0.0, 1.0])
    assert np.allclose(ray.direction, expected / np.linalg.norm(expected))


def test_ray_keeps_only_an_origin_nothing_else_can_change():
    owned = np.array([0.1, 0.2, 0.3])
    owned.flags.writeable = False
    assert Ray(owned, [0.0, 0.0, 2.0]).origin is owned
    buffer = np.zeros(4)
    view = buffer[:3]
    view.flags.writeable = False
    ray = Ray(view, [0.0, 0.0, 2.0])
    buffer[0] = 5.0
    assert ray.origin[0] == 0.0 and not ray.origin.flags.writeable
    writable = np.zeros(3)
    ray = Ray(writable, [0.0, 0.0, 2.0])
    writable[0] = 5.0
    assert ray.origin[0] == 0.0
    for bad in (np.array([np.nan, 0.0, 0.0]), np.array([0.0, np.inf, 0.0])):
        bad.flags.writeable = False
        with pytest.raises(ValueError, match="finite"):
            Ray(bad, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="nonzero"):
        Ray(np.zeros(3), np.zeros(3))


def test_project_ray_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        cam = random_camera(rng, CameraIntrinsics, Camera)
        # a point safely in front of the camera
        depth = rng.uniform(0.3, 3.0)
        direction = quat_rotate(cam.rotation, np.array([rng.uniform(-0.4, 0.4),
                                                        rng.uniform(-0.4, 0.4),
                                                        1.0]))
        point = cam.position + depth * direction
        ray = ray_through_pixel(cam, project(cam, point))
        assert point_ray_distance(ray, point) < 1e-9


def test_triangulate_intersecting_rays():
    intr = CameraIntrinsics(fx=300.0, fy=300.0, cx=320.0, cy=240.0,
                            width=640, height=480)
    rig = StereoRig(left=look_at_camera([-0.5, 0.0, 0.0], [0.0, 0.0, 1.0], intr),
                    right=look_at_camera([0.5, 0.0, 0.0], [0.0, 0.0, 1.0], intr))
    target = np.array([0.0, 0.0, 1.0])
    point, residual = triangulate(rig, project(rig.left, target),
                                  project(rig.right, target))
    assert np.allclose(point, target, atol=1e-9)
    assert residual < 1e-9


def test_intersect_rays_skew_example():
    a = Ray(origin=[0.0, 0.0, 0.0], direction=[1.0, 0.0, 0.0])
    b = Ray(origin=[0.0, 1.0, 0.0], direction=[0.0, 0.0, 1.0])
    point, residual = intersect_rays(a, b)
    assert np.allclose(point, [0.0, 0.5, 0.0])
    assert residual == pytest.approx(1.0)


def test_intersect_rays_parallel_raises():
    a = Ray(origin=[0.0, 0.0, 0.0], direction=[1.0, 0.0, 0.0])
    b = Ray(origin=[0.0, 1.0, 0.0], direction=[1.0, 0.0, 0.0])
    with pytest.raises(DegenerateRays):
        intersect_rays(a, b)


def test_intersect_rays_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = Ray(origin=rng.uniform(-1, 1, 3), direction=rng.normal(size=3))
        b = Ray(origin=rng.uniform(-1, 1, 3), direction=rng.normal(size=3))
        if np.linalg.norm(np.cross(a.direction, b.direction)) < 1e-3:
            continue
        point, residual = intersect_rays(a, b)
        ref_point, ref_dist = brute_force_ray_midpoint(a.origin, a.direction,
                                                       b.origin, b.direction)
        assert np.linalg.norm(point - ref_point) < 1e-6
        assert abs(residual - ref_dist) < 1e-6


def test_triangulate_symmetry():
    intr = CameraIntrinsics(fx=400.0, fy=380.0, cx=320.0, cy=240.0,
                            width=640, height=480)
    rig = StereoRig(left=look_at_camera([-0.4, -0.8, 0.5], [0.4, 0.0, 0.1], intr),
                    right=look_at_camera([1.2, -0.8, 0.5], [0.4, 0.0, 0.1], intr))
    swapped = StereoRig(left=rig.right, right=rig.left)
    target = np.array([0.42, 0.05, 0.12])
    lp, rp = project(rig.left, target), project(rig.right, target)
    p1, r1 = triangulate(rig, lp, rp)
    p2, r2 = triangulate(swapped, rp, lp)
    assert np.allclose(p1, p2, atol=1e-9)
    assert abs(r1 - r2) < 1e-9


def test_point_ray_distance_examples():
    ray = Ray(origin=[0.0, 0.0, 0.0], direction=[1.0, 0.0, 0.0])
    assert point_ray_distance(ray, [5.0, 0.0, 0.0]) == pytest.approx(0.0)
    assert point_ray_distance(ray, [5.0, 3.0, 4.0]) == pytest.approx(5.0)
    # foot of the perpendicular lies behind the origin
    assert point_ray_distance(ray, [-2.0, 0.0, 1.0]) == pytest.approx(np.sqrt(5.0))


def test_point_ray_distance_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(20):
        origin = rng.uniform(-1, 1, 3)
        direction = rng.normal(size=3)
        point = rng.uniform(-2, 2, 3)
        ray = Ray(origin=origin, direction=direction)
        ref = brute_force_point_ray_distance(origin, direction, point)
        assert point_ray_distance(ray, point) == pytest.approx(ref, abs=1e-4)


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=-1.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=100.0, fy=100.0, cx=150.0, cy=50.0, width=100, height=100)


def test_camera_rotation_must_be_unit():
    with pytest.raises(ValueError):
        Camera(intrinsics=SIMPLE_INTR, position=np.zeros(3),
               rotation=np.array([1.0, 1.0, 0.0, 0.0]))


def test_rig_needs_baseline():
    with pytest.raises(ValueError):
        StereoRig(left=IDENTITY_CAM, right=IDENTITY_CAM)


def test_quat_matrix_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = rng.normal(size=4)
        q = q / np.linalg.norm(q)
        R = quat_to_matrix(q)
        q2 = quat_from_matrix(R)
        # same rotation up to sign
        assert min(np.linalg.norm(q - q2), np.linalg.norm(q + q2)) < 1e-9
        v = rng.normal(size=3)
        assert np.allclose(quat_rotate(q, v), R @ v, atol=1e-12)


def test_quat_slerp_endpoints_and_midpoint():
    q0 = np.array([1.0, 0.0, 0.0, 0.0])
    # 90 degrees about z
    q1 = np.array([np.cos(np.pi / 4), 0.0, 0.0, np.sin(np.pi / 4)])
    assert np.allclose(quat_slerp(q0, q1, 0.0), q0)
    assert np.allclose(quat_slerp(q0, q1, 1.0), q1)
    mid = quat_slerp(q0, q1, 0.5)
    expected = np.array([np.cos(np.pi / 8), 0.0, 0.0, np.sin(np.pi / 8)])
    assert np.allclose(mid, expected, atol=1e-12)


def test_quat_slerp_batched_matches_scalar():
    rng = np.random.default_rng(13)
    q0 = rng.normal(size=(8, 4))
    q1 = rng.normal(size=(8, 4))
    q0 /= np.linalg.norm(q0, axis=1, keepdims=True)
    q1 /= np.linalg.norm(q1, axis=1, keepdims=True)
    t = rng.uniform(0, 1, 8)
    batched = quat_slerp(q0, q1, t)
    assert np.allclose(np.linalg.norm(batched, axis=1), 1.0, atol=1e-12)
    for i in range(8):
        assert np.allclose(batched[i], quat_slerp(q0[i], q1[i], t[i]),
                           atol=1e-12)
